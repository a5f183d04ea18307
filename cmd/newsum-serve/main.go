// Command newsum-serve runs the concurrent fault-tolerant solve service
// over HTTP: solve jobs arrive as JSON at POST /solve (NDJSON progress
// streaming with ?stream=1), counters and latency quantiles at GET /stats,
// liveness at GET /healthz. SIGINT/SIGTERM triggers a graceful drain —
// admission stops, queued and running jobs finish, then the process exits.
//
// Usage examples:
//
//	newsum-serve -addr :8080 -workers 8 -queue 128
//	newsum-serve -addr 127.0.0.1:9090 -cache-size 32 -retries 3 -timeout 30s
//
//	curl -s localhost:8080/solve -d '{"solver":"pcg","scheme":"twolevel",
//	  "matrix":{"kind":"laplace2d","n":64},"chaos_faults":2,"seed":7}'
//	curl -s localhost:8080/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"newsum/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "solve workers (0 = default 4)")
	kernelWorkers := flag.Int("kernel-workers", 0, "shared-memory kernel threads per solve worker (0 = GOMAXPROCS/workers, min 1)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = default 64)")
	cacheSize := flag.Int("cache-size", 0, "encoding cache entries (0 = default 16, negative disables)")
	retries := flag.Int("retries", 0, "max automatic retries per job (0 = default 2, negative disables)")
	timeout := flag.Duration("timeout", 0, "default per-job deadline (0 = none)")
	maxRows := flag.Int("max-rows", 0, "admission bound on operator size (0 = default 262144)")
	ckptCodec := flag.String("checkpoint-codec", "", "snapshot codec for solver checkpoints: full (default), lossy, diff")
	ckptRelBound := flag.Float64("checkpoint-rel-bound", 0, "lossy codec per-element relative error bound (0 = package default)")
	ckptAbsBound := flag.Float64("checkpoint-abs-bound", 0, "lossy codec per-element absolute error bound (0 = relative only)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight jobs")
	flag.Parse()

	svc := service.New(service.Config{
		Workers:        *workers,
		KernelWorkers:  *kernelWorkers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		MaxRetries:     *retries,
		DefaultTimeout: *timeout,
		MaxMatrixRows:  *maxRows,

		CheckpointCodec:    *ckptCodec,
		CheckpointRelBound: *ckptRelBound,
		CheckpointAbsBound: *ckptAbsBound,
	})
	server := &http.Server{Addr: *addr, Handler: svc.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "newsum-serve: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errCh:
		// The listener died before any signal: nothing to drain.
		fmt.Fprintf(os.Stderr, "newsum-serve: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "newsum-serve: %v — draining (grace %s)\n", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "newsum-serve: shutdown: %v\n", err)
	}
	svc.Close() // drain queued + running jobs, join workers
	fmt.Fprintln(os.Stderr, "newsum-serve: drained")
}

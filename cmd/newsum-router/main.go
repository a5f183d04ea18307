// Command newsum-router fronts a fleet of newsum-serve backends: jobs are
// consistent-hashed by their operator fingerprint so each operator's
// checksum-encoding cache stays hot on exactly one backend, dead backends
// are restarted and their in-flight jobs re-dispatched, and saturated
// backends are routed around before any client sees a 429. The HTTP
// surface is identical to a single newsum-serve — /solve (with ?stream=1),
// /stats, /healthz — so clients need no changes.
//
// Two fleet modes:
//
//	newsum-router -addr :8070 -backends 4 -backend-cmd ./newsum-serve \
//	    -base-port 9080 -backend-args "-workers 2 -cache-size 32"
//
// spawns and supervises 4 newsum-serve child processes on ports
// 9080..9083, restarting any that die; or
//
//	newsum-router -addr :8070 -join http://h1:8080,http://h2:8080
//
// joins externally managed backends — probed and routed around when down,
// but never restarted.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"newsum/internal/router"
)

// procBackend supervises one newsum-serve child process. Start spawns the
// child on the slot's fixed port and waits for its /healthz; Stop kills it
// outright (SIGKILL — the crash model the router is built to survive).
type procBackend struct {
	bin  string
	args []string
	addr string

	mu   sync.Mutex
	proc *exec.Cmd
	done chan error
}

func (pb *procBackend) Start() (string, error) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if pb.proc != nil {
		return "", fmt.Errorf("backend %s already running", pb.addr)
	}
	args := append(append([]string(nil), pb.args...), "-addr", pb.addr)
	cmd := exec.Command(pb.bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return "", err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	pb.proc, pb.done = cmd, done

	// Wait for the child to bind and answer /healthz so the router starts
	// with a dispatchable slot instead of racing the child's startup.
	url := "http://" + pb.addr
	client := &http.Client{Timeout: 250 * time.Millisecond}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			_ = resp.Body.Close() //lint:ignore errdrop startup probe: the status code is the signal; the body is empty
			if resp.StatusCode == http.StatusOK {
				return url, nil
			}
		}
		select {
		case err := <-done:
			pb.proc, pb.done = nil, nil
			return "", fmt.Errorf("backend %s exited during startup: %v", pb.addr, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
	// Startup budget blown: kill the half-up child so the next attempt
	// starts clean.
	_ = cmd.Process.Kill() //lint:ignore errdrop the child may have just exited; either way the port is being reclaimed
	<-done
	pb.proc, pb.done = nil, nil
	return "", fmt.Errorf("backend %s never became healthy", pb.addr)
}

func (pb *procBackend) Stop() error {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if pb.proc == nil {
		return nil
	}
	err := pb.proc.Process.Kill()
	<-pb.done // reap before the port is reused
	pb.proc, pb.done = nil, nil
	return err
}

func main() {
	addr := flag.String("addr", ":8070", "router listen address")
	backends := flag.Int("backends", 2, "newsum-serve child processes to spawn and supervise")
	backendCmd := flag.String("backend-cmd", "newsum-serve", "backend binary to exec")
	backendArgs := flag.String("backend-args", "", "space-separated extra flags for each backend (e.g. \"-workers 2 -cache-size 32\")")
	basePort := flag.Int("base-port", 9080, "first backend port; slot i listens on base-port+i")
	join := flag.String("join", "", "comma-separated backend URLs to join instead of spawning (no restart supervision)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = default 64)")
	retryBudget := flag.Int("retry-budget", 0, "re-dispatches per job after backend failures (0 = default 3)")
	healthInterval := flag.Duration("health-interval", 0, "backend probe cadence (0 = default 250ms)")
	flag.Parse()

	var fleet []router.Backend
	if *join != "" {
		for _, u := range strings.Split(*join, ",") {
			if u = strings.TrimSpace(u); u != "" {
				fleet = append(fleet, &router.StaticBackend{Base: u})
			}
		}
	} else {
		var extra []string
		if *backendArgs != "" {
			extra = strings.Fields(*backendArgs)
		}
		for i := 0; i < *backends; i++ {
			fleet = append(fleet, &procBackend{
				bin:  *backendCmd,
				args: extra,
				addr: fmt.Sprintf("127.0.0.1:%d", *basePort+i),
			})
		}
	}

	rt, err := router.New(router.Config{
		Backends:       fleet,
		VNodes:         *vnodes,
		RetryBudget:    *retryBudget,
		HealthInterval: *healthInterval,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "newsum-router: %v\n", err)
		os.Exit(1)
	}

	server := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "newsum-router: listening on %s over %d backends\n", *addr, len(fleet))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "newsum-router: %v\n", err)
		_ = rt.Close() //lint:ignore errdrop already exiting on a listener error; backend stop failures add nothing
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "newsum-router: %v — shutting down\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "newsum-router: shutdown: %v\n", err)
	}
	if err := rt.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "newsum-router: backend stop: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "newsum-router: stopped")
}

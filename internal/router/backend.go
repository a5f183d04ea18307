package router

import (
	"fmt"
	"net"
	"net/http"
	"sync"

	"newsum/internal/service"
)

// Backend is one supervised solve process. Start brings it up and returns
// its base URL ("http://host:port"); Stop kills it abruptly — the crash
// model, not a graceful drain — so the supervisor can exercise the full
// dead-backend recovery path. A backend must tolerate Start after Stop
// (that is the restart) and Stop when already stopped.
type Backend interface {
	Start() (string, error)
	Stop() error
}

// LocalBackend runs a service in-process behind a real TCP listener: the
// same HTTP surface as a newsum-serve child process, without the exec. It
// is the backend of the router's tests and benchmarks — Stop closes the
// listener and every active connection mid-flight, which is exactly what a
// killed process looks like to the router.
type LocalBackend struct {
	// Cfg sizes each incarnation's service.
	Cfg service.Config

	mu  sync.Mutex
	svc *service.Service
	srv *http.Server
	url string
}

// Start brings up a fresh service incarnation on a fresh port.
func (lb *LocalBackend) Start() (string, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if lb.svc != nil {
		return "", fmt.Errorf("router: local backend already started")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	lb.svc = service.New(lb.Cfg)
	lb.srv = &http.Server{Handler: lb.svc.Handler()}
	srv := lb.srv
	go func() {
		_ = srv.Serve(ln) //lint:ignore errdrop Serve always returns a non-nil error on Close; the shutdown path already knows
	}()
	lb.url = "http://" + ln.Addr().String()
	return lb.url, nil
}

// Stop kills the incarnation: listener and in-flight connections close
// immediately (clients see a reset — the crash signature), then the
// orphaned service drains in the background so its workers and kernel
// pools are reclaimed without delaying the restart.
func (lb *LocalBackend) Stop() error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if lb.svc == nil {
		return nil
	}
	err := lb.srv.Close()
	svc := lb.svc
	go svc.Close()
	lb.svc, lb.srv, lb.url = nil, nil, ""
	return err
}

// Service exposes the current incarnation for in-process inspection
// (tests and benchmarks assert on backend counters); nil when stopped.
func (lb *LocalBackend) Service() *service.Service {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.svc
}

// StaticBackend joins an externally managed newsum-serve by URL: Start
// just hands the URL back and Stop is a no-op, so the supervisor can probe
// and route around it but cannot restart it — a dead static backend stays
// dead until its operator brings it back, and the probe loop then readmits
// it.
type StaticBackend struct {
	Base string
}

func (sb *StaticBackend) Start() (string, error) {
	if sb.Base == "" {
		return "", fmt.Errorf("router: static backend needs a URL")
	}
	return sb.Base, nil
}

func (sb *StaticBackend) Stop() error { return nil }

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"mamps/internal/obs"
	"mamps/internal/service"
)

// serviceConfig is mamps-serve's shipped flag defaults: 4 job workers,
// queue 64, 4096 cache entries, analyze-workers 0 (one per CPU, so the
// sharded explorer is on), warm cache 256 and no runlog. The access log is
// formatted at the default level and discarded.
func serviceConfig() service.Config {
	return service.Config{
		Workers:        4,
		QueueDepth:     64,
		JobTimeout:     60 * time.Second,
		CacheCapacity:  4096,
		AnalyzeWorkers: 0,
		WarmCapacity:   0,
		Logger:         obs.NewLogger(io.Discard, slog.LevelInfo, false),
	}
}

// loopback serves the real service handler over one loopback HTTP
// listener. swap installs a fresh service behind the same listener, so
// flow-cold can give every request its own service without reconnecting.
type loopback struct {
	url     string
	http    *http.Server
	served  chan error
	current atomic.Pointer[instance]
	client  *http.Client
}

type instance struct {
	svc     *service.Server
	handler http.Handler
}

func newLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	lb := &loopback{
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
	lb.swap()
	lb.http = &http.Server{Handler: lb}
	go func() { lb.served <- lb.http.Serve(ln) }()
	return lb, nil
}

func (lb *loopback) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	lb.current.Load().handler.ServeHTTP(w, r)
}

// swap installs a fresh service and drains the previous one. It then
// collects the previous request's garbage, so that every request starts
// on a clean heap, as one run of a fresh mamps-flow process would, and
// neither its latency nor the peak memory depends on when the collector
// last ran.
func (lb *loopback) swap() {
	svc := service.New(serviceConfig())
	old := lb.current.Swap(&instance{svc: svc, handler: svc.Handler()})
	if old != nil {
		_ = old.svc.Shutdown(context.Background()) // no jobs are in flight between requests
	}
	runtime.GC()
}

// close stops the HTTP server and the service and waits for both.
func (lb *loopback) close() error {
	lb.client.CloseIdleConnections()
	err := lb.http.Shutdown(context.Background())
	if serr := <-lb.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := lb.current.Load().svc.Shutdown(context.Background()); err == nil {
		err = serr
	}
	return err
}

// send posts one request and reads the whole answer into buf. The latency
// runs from the send to the last body byte read.
func (lb *loopback) send(r request, buf *bytes.Buffer) (time.Duration, int, error) {
	req, err := http.NewRequest(http.MethodPost, lb.url+r.path, strings.NewReader(r.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := lb.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return lat, resp.StatusCode, err
}

// get fetches a GET endpoint such as /metrics.
func (lb *loopback) get(path string) ([]byte, error) {
	resp, err := lb.client.Get(lb.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

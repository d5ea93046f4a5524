package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"zipserv/internal/engine"
	"zipserv/internal/gpu"
	"zipserv/internal/httpapi"
	"zipserv/internal/serve"
	"zipserv/internal/weights"
)

// The deployment every workload runs: zipserv-server's defaults.
const (
	modelName  = "LLaMA3.1-8B"
	deviceName = "RTX4090"
	queueDepth = 256
	maxConns   = 2 // client connections: nproc on the reference box
)

func newEngine() (*engine.Engine, error) {
	model, err := weights.ByName(modelName)
	if err != nil {
		return nil, err
	}
	dev, err := gpu.ByName(deviceName)
	if err != nil {
		return nil, err
	}
	return engine.New(engine.Config{Model: model, Device: dev, NumGPUs: 1, Backend: engine.Backend("zipserv")})
}

// stack is the live serving stack wired the way cmd/zipserv-server wires
// it — engine → serve.Server replicas → serve.Router → httpapi.NewLiveMux
// → net/http — listening on loopback, plus the client that drives it.
type stack struct {
	w       *workload
	backend serve.Backend // the backend the mux was given
	tracer  *tracedBackend
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
}

// buildStack starts a stack for the workload. With traced set, the mux
// receives the backend wrapped in a tracedBackend, which times Submit
// while a recorder is attached and is a plain pass-through otherwise.
func buildStack(w *workload, traced bool) (*stack, error) {
	servers := make([]*serve.Server, w.replicas)
	for i := range servers {
		eng, err := newEngine()
		if err != nil {
			return nil, err
		}
		cfg := serve.Config{
			Engine: eng, QueueDepth: queueDepth,
			PrefixCache: w.prefixCache, CompressedCache: w.compressedCache,
		}
		if servers[i], err = serve.New(cfg); err != nil {
			return nil, err
		}
	}
	var live serve.Backend = servers[0]
	if len(servers) > 1 {
		backends := make([]serve.Backend, len(servers))
		for i, s := range servers {
			backends[i] = s
		}
		r, err := serve.NewRouter(backends...)
		if err != nil {
			return nil, err
		}
		live = r
	}
	st := &stack{w: w, backend: live, served: make(chan error, 1)}
	if traced {
		st.tracer = &tracedBackend{Backend: live}
		st.backend = st.tracer
	}
	st.backend.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = st.backend.Stop(context.Background())
		return nil, err
	}
	st.srv = &http.Server{
		Handler:           httpapi.NewLiveMux(st.backend),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	go func() { st.served <- st.srv.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	return st, nil
}

// close stops the HTTP server, then drains the backend, and waits for
// both to finish.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st.client.CloseIdleConnections()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, st.backend.Stop(ctx))
}

func (st *stack) healthz() error {
	resp, err := st.client.Get(st.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

func (st *stack) stats() (serve.Stats, error) {
	var s serve.Stats
	resp, err := st.client.Get(st.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/v1/stats: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("/v1/stats: %w", err)
	}
	return s, nil
}

// setUp builds a stack, waits for /healthz and sends the workload's
// warm-up requests one at a time, checking each. It returns the stack
// and the wall time all of that took.
func setUp(w *workload, t *traffic, traced bool) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := buildStack(w, traced)
	if err != nil {
		return nil, 0, err
	}
	if err := st.healthz(); err != nil {
		return nil, 0, errors.Join(err, st.close())
	}
	for i := 0; i < w.warmups; i++ {
		q := t.warmup(i)
		if _, err := st.do(context.Background(), q, now(), false); err != nil {
			return nil, 0, errors.Join(fmt.Errorf("warm-up request %d: %w", i, err), st.close())
		}
	}
	return st, time.Since(start), nil
}

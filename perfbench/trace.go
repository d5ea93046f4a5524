package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"zipserv/internal/serve"
)

// span is one timed interval of the traced run. Spans of one request
// share Req (the id the server assigned it; the replay index in the layer
// drives). Times are nanoseconds since epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span; -1 for a root
	Req    int    `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run dumps them.
type recorder struct {
	mu      sync.Mutex
	spans   []span
	submits []submit
}

// submit identifies a router.submit span by what the backend saw: the
// ticket ID it returned and the lengths of the request. Ticket IDs are
// unique per replica, not per fleet, so the ID alone does not name a
// request.
type submit struct {
	span                 int // index into spans
	id                   int
	promptLen, outputLen int
}

// add appends a span and returns its index.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// end closes the span at index i now.
func (r *recorder) end(i int) {
	t := now()
	r.mu.Lock()
	r.spans[i].End = t
	r.mu.Unlock()
}

// timed records fn as a span from now until it returns.
func (r *recorder) timed(name string, parent, req int, fn func()) span {
	start := now()
	fn()
	s := span{Name: name, Start: start, End: now(), Parent: parent, Req: req}
	r.add(s)
	return s
}

// dump writes every span as one JSON line.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedBackend wraps the backend the HTTP mux receives and records a
// router.submit span around each Submit while a recorder is attached.
type tracedBackend struct {
	serve.Backend
	rec atomic.Pointer[recorder]
}

func (b *tracedBackend) Submit(req serve.Request) (*serve.Ticket, error) {
	rec := b.rec.Load()
	if rec == nil {
		return b.Backend.Submit(req)
	}
	start := now()
	tk, err := b.Backend.Submit(req)
	end := now()
	id := -1
	if err == nil {
		id = tk.ID
	}
	i := rec.add(span{Name: "router.submit", Start: start, End: end, Parent: -1, Req: id})
	if err == nil {
		rec.mu.Lock()
		rec.submits = append(rec.submits, submit{span: i, id: id, promptLen: req.PromptLen, outputLen: req.OutputLen})
		rec.mu.Unlock()
	}
	return tk, err
}

// pairSubmits returns, for each sample, the index of its router.submit
// span, or -1. A span belongs to a request when the ticket ID and the
// lengths match and the Submit call lies within the request's send →
// result line. A request with no such span, or more than one, and a span
// that more than one request could claim, stay unpaired.
func pairSubmits(spans []span, submits []submit, samples []sample) []int {
	type key struct{ id, promptLen, outputLen int }
	byKey := make(map[key][]int)
	for _, sb := range submits {
		k := key{sb.id, sb.promptLen, sb.outputLen}
		byKey[k] = append(byKey[k], sb.span)
	}
	pair := make([]int, len(samples))
	claims := make(map[int]int)
	for i := range samples {
		pair[i] = -1
		s := &samples[i]
		if s.failed {
			continue
		}
		for _, j := range byKey[key{s.o.ticket, s.promptLen, s.outputLen}] {
			if spans[j].Start < s.o.send || spans[j].End > s.o.done {
				continue
			}
			if pair[i] >= 0 {
				pair[i] = -2 // ambiguous
				break
			}
			pair[i] = j
		}
		if pair[i] >= 0 {
			claims[pair[i]]++
		}
	}
	for i, j := range pair {
		if j < 0 || claims[j] > 1 {
			pair[i] = -1
		}
	}
	return pair
}

// traceRequests adds each completed request's client-side spans and
// hangs its router.submit span under it:
//
//	request            due → result line
//	  httpapi.request  send → result line
//	    router.submit    Submit call (recorded by tracedBackend)
//	    replica.queue    Submit returned → admitted line
//	    replica.prefill  admitted line → first_token line
//	    replica.decode   first_token line → result line
//
// A request whose submit span cannot be paired gets no spans; one
// missing a progress event gets only the spans it bounds. It returns how
// many completed requests stayed unpaired.
func traceRequests(rec *recorder, samples []sample) (unpaired int) {
	rec.mu.Lock()
	pair := pairSubmits(rec.spans, rec.submits, samples)
	rec.mu.Unlock()
	for i := range samples {
		o := &samples[i].o
		sub := pair[i]
		if samples[i].failed {
			continue
		}
		if sub < 0 {
			unpaired++
			continue
		}
		root := rec.add(span{Name: "request", Start: o.due, End: o.done, Parent: -1, Req: o.ticket})
		http := rec.add(span{Name: "httpapi.request", Start: o.send, End: o.done, Parent: root, Req: o.ticket})
		rec.mu.Lock()
		rec.spans[sub].Parent = http
		submitEnd := rec.spans[sub].End
		rec.mu.Unlock()
		child := func(name string, start, end int64) {
			// An event the stream did not carry bounds no span, and an
			// interval that ends before it starts is not a span.
			if start != 0 && end != 0 && end >= start {
				rec.add(span{Name: name, Start: start, End: end, Parent: http, Req: o.ticket})
			}
		}
		child("replica.queue", submitEnd, o.admitted)
		child("replica.prefill", o.admitted, o.firstToken)
		child("replica.decode", o.firstToken, o.done)
	}
	return unpaired
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(kids[i])
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, lo, hi int64
	for i, x := range iv {
		switch {
		case i == 0:
			lo, hi = x[0], x[1]
		case x[0] > hi:
			total += hi - lo
			lo, hi = x[0], x[1]
		case x[1] > hi:
			hi = x[1]
		}
	}
	if len(iv) > 0 {
		total += hi - lo
	}
	return total
}

// byName collects the values of spans with the given name, in the unit
// scale (e.g. 1e3 for µs, 1e6 for ms), from durations or self times.
func byName(spans []span, vals []int64, name string, scale float64) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(vals[i])/scale)
		}
	}
	return out
}

package main

import (
	"fmt"
	"strconv"
	"time"
)

// workload is one traffic mix against one deployment shape. The open-loop
// rate and the two SLO limits are fixed per workload, so two commits are
// always measured at the same offered load against the same limits.
type workload struct {
	name string

	// Deployment, as zipserv-server flags would build it.
	replicas        int // more than one: a least-loaded serve.Router over them
	prefixCache     bool
	compressedCache bool

	// Open-loop phase: Poisson arrivals at rate req/s, judged against the
	// wall TTFT and latency limits.
	rate         float64
	ttftLimit    time.Duration
	latencyLimit time.Duration

	// Saturation slices send a fixed number of requests, about a second's
	// work on the 2-vCPU reference VM, so the server goes through the
	// same states in every run however fast the host is.
	sliceRequests int

	wantCached bool // output check: every measured request reuses a cached prefix

	warmups int                              // warm-up requests before measuring
	gen     func(t *traffic, r *rng) request // draws one measured request
}

// Random-stream identifiers: each phase draws from its own stream, so
// adding requests to one phase never shifts another phase's inputs.
const (
	streamPrefix uint64 = iota + 1
	streamWarmup
	streamSaturate
	streamOpen
	streamTraced
	streamSchedule
	streamDrive
	streamCore
)

const (
	vocab           = 128000 // token ids are drawn from [0, vocab)
	ragPrefixes     = 8
	ragPrefixTokens = 1024
	ragUniqueTokens = 64
)

var workloads = []*workload{
	// chat costs HTTP, router dispatch and the replica decode loop only:
	// no prefix trie, no codec, so a codec or trie change should leave it
	// unchanged.
	{
		name:     "chat",
		replicas: 2,
		rate:     1000, ttftLimit: 5 * time.Millisecond, latencyLimit: 20 * time.Millisecond,
		sliceRequests: 6000,
		warmups:       64,
		gen: func(t *traffic, r *rng) request {
			return request{PromptLen: r.between(64, 1024), OutputLen: r.between(32, 256)}
		},
	},
	// rag-cold keeps 8 shared 1024-token prefixes TCA-TBE compressed:
	// every request thaws its prefix on claim and refreezes it on release,
	// so codec and trie dominate.
	{
		name:     "rag-cold",
		replicas: 1, prefixCache: true, compressedCache: true,
		rate: 10, ttftLimit: 60 * time.Millisecond, latencyLimit: 120 * time.Millisecond,
		sliceRequests: 50,
		wantCached:    true,
		warmups:       ragPrefixes,
		gen: func(t *traffic, r *rng) request {
			return t.ragRequest(r.between(0, ragPrefixes-1), r)
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// request is one generated /v1/generate call. Prompt is nil for a
// length-only request.
type request struct {
	PromptLen int
	OutputLen int
	Prompt    []int
}

func tokenRequest(prompt []int, outputLen int) request {
	return request{PromptLen: len(prompt), OutputLen: outputLen, Prompt: prompt}
}

// body renders the streaming /v1/generate request body.
func (q request) body() []byte {
	b := make([]byte, 0, 64+7*len(q.Prompt))
	b = append(b, `{"prompt_len":`...)
	b = strconv.AppendInt(b, int64(q.PromptLen), 10)
	b = append(b, `,"output_len":`...)
	b = strconv.AppendInt(b, int64(q.OutputLen), 10)
	if len(q.Prompt) > 0 {
		b = append(b, `,"prompt":[`...)
		for i, tok := range q.Prompt {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(tok), 10)
		}
		b = append(b, ']')
	}
	return append(b, `,"stream":true}`...)
}

// traffic generates a workload's requests from the benchmark seed. Request
// i of a stream depends only on (seed, stream, i), never on how many
// requests other phases drew or in what order workers pulled them.
type traffic struct {
	w        *workload
	seed     int64
	prefixes [][]int // rag-cold shared prefixes
}

func newTraffic(w *workload, seed int64) *traffic {
	t := &traffic{w: w, seed: seed}
	if w.name == "rag-cold" {
		for p := 0; p < ragPrefixes; p++ {
			r := newRNG(seed, streamPrefix, p)
			t.prefixes = append(t.prefixes, r.tokens(ragPrefixTokens))
		}
	}
	return t
}

// at returns request i of a stream.
func (t *traffic) at(stream uint64, i int) request {
	r := newRNG(t.seed, stream, i)
	return t.w.gen(t, &r)
}

// warmup returns warm-up request i. On rag-cold it is one request per
// shared prefix, so every prefix is cached (and frozen) before measuring.
func (t *traffic) warmup(i int) request {
	if t.w.name == "rag-cold" {
		r := newRNG(t.seed, streamWarmup, i)
		return t.ragRequest(i%ragPrefixes, &r)
	}
	return t.at(streamWarmup, i)
}

func (t *traffic) ragRequest(prefix int, r *rng) request {
	prompt := make([]int, 0, ragPrefixTokens+ragUniqueTokens)
	prompt = append(prompt, t.prefixes[prefix]...)
	prompt = append(prompt, r.tokens(ragUniqueTokens)...)
	return tokenRequest(prompt, r.between(16, 64))
}

// poissonSchedule returns the due offsets of an open-loop phase: Poisson
// arrivals at rate req/s over dur.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	r := newRNG(seed, streamSchedule, 0)
	var out []time.Duration
	t := 0.0
	for {
		t += r.exp() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, due)
	}
}

// splitSchedule cuts a schedule into n segments of length seg. Each
// segment's offsets run from its own start, and first[k] is the index in
// sched of segment k's first request.
func splitSchedule(sched []time.Duration, seg time.Duration, n int) (segs [][]time.Duration, first []int) {
	i := 0
	for k := 0; k < n; k++ {
		lo, hi := time.Duration(k)*seg, time.Duration(k+1)*seg
		first = append(first, i)
		var part []time.Duration
		for ; i < len(sched) && sched[i] < hi; i++ {
			part = append(part, sched[i]-lo)
		}
		segs = append(segs, part)
	}
	return segs, first
}

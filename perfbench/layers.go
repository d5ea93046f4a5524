package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"zipserv/internal/bf16"
	"zipserv/internal/core"
	"zipserv/internal/engine"
)

// engineDrive holds the layer drive's per-call wall times in µs.
type engineDrive struct {
	admit, prefill, decodeStep, export, imp []float64
	exportOrig, exportWire                  int64 // raw and compressed KV bytes exported
}

func newStepper(w *workload) (*engine.Stepper, error) {
	eng, err := newEngine()
	if err != nil {
		return nil, err
	}
	sp, err := engine.NewStepper(eng)
	if err != nil {
		return nil, err
	}
	sp.PackedPrefill = true // as the live scheduler sets it
	if w.prefixCache {
		if err := sp.EnablePrefixCache(0); err != nil {
			return nil, err
		}
	}
	if w.compressedCache {
		if err := sp.EnableCompressedCache(); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// driveEngine replays the workload's requests straight into
// engine.Stepper from this goroutine, one request at a time, with the
// workload's cache settings, and times each call into the engine. It
// replays co-located for budget, then hands probeRequests requests off
// the way a pooled router does: prefill on one stepper, export, import
// into a second stepper that decodes. So export and import are timed on
// every workload's request shapes.
func driveEngine(w *workload, t *traffic, rec *recorder, budget time.Duration) (*engineDrive, error) {
	d := &engineDrive{}
	const probeRequests = 16
	if err := d.replay(w, t, rec, false, budget, 0); err != nil {
		return d, err
	}
	return d, d.replay(w, t, rec, true, budget, probeRequests)
}

// replay runs warm-up requests untimed, then measured requests until the
// budget is spent or limit requests (0 = no limit) have run.
func (d *engineDrive) replay(w *workload, t *traffic, rec *recorder, handoff bool, budget time.Duration, limit int) error {
	first, err := newStepper(w)
	if err != nil {
		return err
	}
	second := first
	if handoff {
		if second, err = newStepper(w); err != nil {
			return err
		}
	}
	id := 0
	run := func(q request, timed bool) error {
		id++
		req := engine.Request{ID: id, ArrivalSeconds: first.Clock(), PromptLen: q.PromptLen, OutputLen: q.OutputLen, Prompt: q.Prompt}
		root := -1
		if timed {
			root = rec.add(span{Name: "engine.request", Start: now(), Parent: -1, Req: id})
		}
		call := func(name string, out *[]float64, fn func()) {
			if !timed {
				fn()
				return
			}
			s := rec.timed(name, root, id, fn)
			*out = append(*out, float64(s.dur())/1e3)
		}
		var err error
		call("engine.admit", &d.admit, func() { err = first.Admit(req) })
		if err != nil {
			return err
		}
		call("engine.prefill", &d.prefill, func() { first.Prefill() })
		decoder := first
		if handoff {
			var exp *engine.SequenceExport
			call("engine.export", &d.export, func() { exp, err = first.ExportSequence(id) })
			if err != nil {
				return err
			}
			call("engine.import", &d.imp, func() { err = second.ImportSequence(exp) })
			if err != nil {
				return err
			}
			if timed {
				d.exportOrig += exp.KV.OrigBytes()
				d.exportWire += exp.CompressedBytes()
			}
			decoder = second
		}
		// One span covers the decode loop; each step's time goes only to
		// the metric (a span per step would be most of the dump).
		decodeStart := now()
		for decoder.InFlight() > 0 && err == nil {
			t0 := now()
			_, _, err = decoder.DecodeStep()
			if timed {
				d.decodeStep = append(d.decodeStep, float64(now()-t0)/1e3)
			}
		}
		if timed {
			rec.add(span{Name: "engine.decode", Start: decodeStart, End: now(), Parent: root, Req: id})
		}
		if timed && err == nil {
			rec.end(root)
		}
		return err
	}
	for i := 0; i < w.warmups; i++ {
		if err := run(t.warmup(i), false); err != nil {
			return fmt.Errorf("engine drive warm-up %d: %w", i, err)
		}
	}
	deadline := time.Now().Add(budget)
	for i := 0; (limit == 0 || i < limit) && time.Now().Before(deadline); i++ {
		if err := run(t.at(streamDrive, i), true); err != nil {
			return fmt.Errorf("engine drive request %d: %w", i, err)
		}
	}
	// Close checks the allocator: nothing leaked, nothing double-owned.
	err = first.Close()
	if handoff {
		err = errors.Join(err, second.Close())
	}
	return err
}

// coreDrive holds the codec's per-call wall times in µs on one KV block.
type coreDrive struct {
	compress, decompress             []float64
	compressAllocs, decompressAllocs float64
}

// kvBlock synthesizes one 64×64 BF16 KV block with the value
// distribution the KV cache stores: an xorshift stream mapped into a
// narrow band centred on zero, whose clustered exponents TCA-TBE exploits.
func kvBlock(seed int64) *bf16.Matrix {
	r := newRNG(seed, streamCore, 0)
	x := r.next() | 1
	m := bf16.NewMatrix(64, 64)
	for i := range m.Data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.Data[i] = bf16.FromFloat32(float32(int64(x>>40)-(1<<23)) / float32(1<<27))
	}
	return m
}

// driveCore times core.Compress and core.Decompress on one KV block,
// checks the round trip is bit-exact, and counts heap allocations per
// call.
func driveCore(seed int64, iters int, rec *recorder) (*coreDrive, error) {
	m := kvBlock(seed)
	d := &coreDrive{}
	var c *core.Compressed
	var err error
	for i := 0; i < iters && err == nil; i++ {
		s := rec.timed("core.compress", -1, i, func() { c, err = core.Compress(m) })
		d.compress = append(d.compress, float64(s.dur())/1e3)
	}
	if err != nil {
		return nil, err
	}
	var out *bf16.Matrix
	for i := 0; i < iters && err == nil; i++ {
		s := rec.timed("core.decompress", -1, i, func() { out, err = core.Decompress(c) })
		d.decompress = append(d.decompress, float64(s.dur())/1e3)
	}
	if err != nil {
		return nil, err
	}
	if !out.Equal(m) {
		return nil, errors.New("core: KV block round trip is not bit-exact")
	}
	d.compressAllocs = allocsPerCall(iters, func() { c, _ = core.Compress(m) })
	d.decompressAllocs = allocsPerCall(iters, func() { out, _ = core.Decompress(c) })
	return d, nil
}

// allocsPerCall returns the mean heap allocations of fn over n calls.
func allocsPerCall(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

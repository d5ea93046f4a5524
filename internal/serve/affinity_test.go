package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"zipserv/internal/engine"
	"zipserv/internal/kvcache"
)

// acceptStub is a Backend that accepts every submission and serves a
// canned Stats snapshot — the dispatch-decision fixture: which replica
// a router picks is observable as the stub's submit count.
type acceptStub struct {
	st      Stats
	submits int
}

func (s *acceptStub) Start() {}
func (s *acceptStub) Submit(Request) (*Ticket, error) {
	s.submits++
	return &Ticket{}, nil
}
func (s *acceptStub) Stats() Stats               { return s.st }
func (s *acceptStub) Stop(context.Context) error { return nil }

// summaryOf builds a real prefix-trie digest advertising the given
// prompts, via an actual kvcache manager — stub replicas then claim
// cached content they do not have, which is exactly what a router sees.
func summaryOf(t *testing.T, prompts ...[]int) *kvcache.PrefixSummary {
	t.Helper()
	m, err := kvcache.NewManager(kvcache.Config{BlockTokens: kvcache.DefaultBlockTokens, TotalBlocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnablePrefixCache(0); err != nil {
		t.Fatal(err)
	}
	for i, p := range prompts {
		if err := m.Allocate(i+1, len(p)); err != nil {
			t.Fatal(err)
		}
		if err := m.CommitPrefix(i+1, p, len(p)); err != nil {
			t.Fatal(err)
		}
	}
	return m.PrefixSummary()
}

func TestEnableAffinityValidation(t *testing.T) {
	r, err := NewRouter(&acceptStub{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []AffinityConfig{
		{LoadBand: -1}, {MinFreeBlocks: -1}, {MinOverlapTokens: -1}, {LongPromptTokens: -1},
	} {
		if err := r.EnableAffinity(bad); err == nil {
			t.Errorf("EnableAffinity(%+v) accepted a negative knob", bad)
		}
	}
	if r.AffinityEnabled() {
		t.Error("rejected configs must not enable affinity")
	}
	if err := r.EnableAffinity(AffinityConfig{}); err != nil {
		t.Fatal(err)
	}
	if !r.AffinityEnabled() {
		t.Error("AffinityEnabled() false after EnableAffinity")
	}
}

// TestAffinityPrefersSummaryMatchInBand: with comparable load, a
// request must land on the replica whose digest matches its prompt —
// not the least-loaded one — and count as an affinity hit.
func TestAffinityPrefersSummaryMatchInBand(t *testing.T) {
	prompt := seqTokens(256, 42)
	cold := &acceptStub{st: Stats{FreeKVBlocks: 1000}}
	warm := &acceptStub{st: Stats{
		FreeKVBlocks: 1000, Queued: 2, // slightly busier, inside the band
		PrefixSummary: summaryOf(t, prompt),
	}}
	r, err := NewRouter(cold, warm)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableAffinity(AffinityConfig{LoadBand: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(Request{Prompt: append(append([]int(nil), prompt...), seqTokens(64, 7)...), OutputLen: 16}); err != nil {
		t.Fatal(err)
	}
	if warm.submits != 1 || cold.submits != 0 {
		t.Fatalf("dispatch went cold=%d warm=%d, want the summary match (warm)", cold.submits, warm.submits)
	}
	agg := r.Stats()
	if agg.PrefixAffinityHits != 1 || agg.AffinitySpills != 0 {
		t.Errorf("hits/spills = %d/%d, want 1/0", agg.PrefixAffinityHits, agg.AffinitySpills)
	}

	// A promptless request has nothing to match: pure least-loaded.
	if _, err := r.Submit(Request{PromptLen: 64, OutputLen: 16}); err != nil {
		t.Fatal(err)
	}
	if cold.submits != 1 {
		t.Errorf("promptless request went to the busier replica")
	}
	if agg := r.Stats(); agg.PrefixAffinityHits != 1 {
		t.Errorf("promptless request perturbed affinity hits: %d", agg.PrefixAffinityHits)
	}
}

// TestAffinitySpillsOutOfBand: affinity must lose to load when the
// preferred replica sits past the load band or under the free-block
// floor — counted as spills, routed least-loaded.
func TestAffinitySpillsOutOfBand(t *testing.T) {
	prompt := seqTokens(256, 42)
	sum := summaryOf(t, prompt)
	req := Request{Prompt: prompt, OutputLen: 16}

	// Out of band: the matching replica is 20 deep, band is 4.
	cold := &acceptStub{st: Stats{FreeKVBlocks: 1000}}
	warm := &acceptStub{st: Stats{FreeKVBlocks: 1000, Queued: 20, PrefixSummary: sum}}
	r, err := NewRouter(cold, warm)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableAffinity(AffinityConfig{LoadBand: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(req); err != nil {
		t.Fatal(err)
	}
	if cold.submits != 1 || warm.submits != 0 {
		t.Fatalf("out-of-band dispatch went cold=%d warm=%d, want least-loaded (cold)", cold.submits, warm.submits)
	}
	if agg := r.Stats(); agg.PrefixAffinityHits != 0 || agg.AffinitySpills != 1 {
		t.Errorf("hits/spills = %d/%d, want 0/1", agg.PrefixAffinityHits, agg.AffinitySpills)
	}

	// Under the free-block floor: in band, but no room for the
	// reservation.
	starved := &acceptStub{st: Stats{FreeKVBlocks: 1, PrefixSummary: sum}}
	roomy := &acceptStub{st: Stats{FreeKVBlocks: 1000, Queued: 1}}
	r2, err := NewRouter(starved, roomy)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.EnableAffinity(AffinityConfig{LoadBand: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Submit(req); err != nil {
		t.Fatal(err)
	}
	if roomy.submits != 1 || starved.submits != 0 {
		t.Fatalf("floor dispatch went starved=%d roomy=%d, want the replica with room", starved.submits, roomy.submits)
	}
	if agg := r2.Stats(); agg.AffinitySpills != 1 {
		t.Errorf("floor spill not counted: %d", agg.AffinitySpills)
	}
}

// TestAffinityLongPromptPrefersIdleLoop: on a load tie, a long prompt
// must tie-break toward the replica whose adaptive chunk budget sits at
// its ceiling (the idle operating point) even when the other candidate
// has more free blocks.
func TestAffinityLongPromptPrefersIdleLoop(t *testing.T) {
	busyLoop := &acceptStub{st: Stats{FreeKVBlocks: 5000, AdaptiveChunking: true,
		ChunkBudget: 256, ChunkBudgetMax: 2048}}
	idleLoop := &acceptStub{st: Stats{FreeKVBlocks: 1000, AdaptiveChunking: true,
		ChunkBudget: 2048, ChunkBudgetMax: 2048}}
	r, err := NewRouter(busyLoop, idleLoop)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableAffinity(AffinityConfig{}); err != nil {
		t.Fatal(err)
	}
	long := Request{Prompt: seqTokens(2048, 3), OutputLen: 16}
	if _, err := r.Submit(long); err != nil {
		t.Fatal(err)
	}
	if idleLoop.submits != 1 || busyLoop.submits != 0 {
		t.Fatalf("long prompt went busy=%d idle=%d, want the ceiling-budget loop", busyLoop.submits, idleLoop.submits)
	}
	// A short prompt keeps the plain free-block tie-break.
	short := Request{Prompt: seqTokens(64, 3), OutputLen: 16}
	if _, err := r.Submit(short); err != nil {
		t.Fatal(err)
	}
	if busyLoop.submits != 1 {
		t.Errorf("short prompt ignored the free-block tie-break")
	}
}

// TestRouterAggregatesAffinityStats: the fleet view must sum hit/spill
// counters (nested routers report their own), take the oldest summary
// age, and merge the per-replica digests (blocks summed, roots
// unioned) — with a summaryless replica folding in cleanly.
func TestRouterAggregatesAffinityStats(t *testing.T) {
	p1, p2 := seqTokens(64, 1), seqTokens(64, 2)
	s1, s2 := summaryOf(t, p1), summaryOf(t, p2)
	a := Stats{PrefixAffinityHits: 2, AffinitySpills: 1, SummaryAgeSeconds: 1.5, PrefixSummary: s1}
	b := Stats{PrefixAffinityHits: 3, AffinitySpills: 4, SummaryAgeSeconds: 0.25, PrefixSummary: s2}
	c := Stats{} // stopped or cacheless replica: no digest, no counters
	r, err := NewRouter(&statsStub{a}, &statsStub{b}, &statsStub{c})
	if err != nil {
		t.Fatal(err)
	}
	agg := r.Stats()
	if agg.PrefixAffinityHits != 5 || agg.AffinitySpills != 5 {
		t.Errorf("hits/spills = %d/%d, want summed 5/5", agg.PrefixAffinityHits, agg.AffinitySpills)
	}
	if agg.SummaryAgeSeconds != 1.5 {
		t.Errorf("summary age %v, want the oldest replica's 1.5", agg.SummaryAgeSeconds)
	}
	if agg.PrefixSummary == nil {
		t.Fatal("aggregate dropped the merged digest")
	}
	if got, want := agg.PrefixSummary.Blocks, s1.Blocks+s2.Blocks; got != want {
		t.Errorf("merged digest %d blocks, want %d", got, want)
	}
	if len(agg.PrefixSummary.Roots) != 2 {
		t.Errorf("merged digest %d roots, want both tenants'", len(agg.PrefixSummary.Roots))
	}
	// Both tenants' prompts match the fleet digest.
	for i, p := range [][]int{p1, p2} {
		hp := kvcache.HashPromptTokens(p, agg.PrefixSummary.BlockTokens)
		if agg.PrefixSummary.MatchTokens(hp) == 0 {
			t.Errorf("tenant %d prompt missing from merged digest", i+1)
		}
	}
}

// TestAggregateAffinityZeroReplicas: an empty fold must not invent a
// digest or counters.
func TestAggregateAffinityZeroReplicas(t *testing.T) {
	agg := aggregateStats(nil)
	if agg.PrefixSummary != nil {
		t.Errorf("zero-replica aggregate invented a digest: %+v", agg.PrefixSummary)
	}
	if agg.PrefixAffinityHits != 0 || agg.AffinitySpills != 0 || agg.SummaryAgeSeconds != 0 {
		t.Errorf("zero-replica affinity fields nonzero: %+v", agg)
	}
}

// TestAffinityStatsSurviveStoppedReplica: a drained replica's final
// snapshot still carries its digest; the fleet aggregate keeps folding
// it and live dispatch keeps working against the survivors.
func TestAffinityStatsSurviveStoppedReplica(t *testing.T) {
	servers := make([]*Server, 2)
	backends := make([]Backend, 2)
	for i := range servers {
		servers[i] = newServer(t, Config{
			Engine: testEngine(t, engine.BackendZipServ), QueueDepth: 16, PrefixCache: true,
		})
		backends[i] = servers[i]
	}
	r, err := NewRouter(backends...)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableAffinity(AffinityConfig{LoadBand: 16}); err != nil {
		t.Fatal(err)
	}
	r.Start()
	// Warm each replica with its own tenant prefix.
	for i, sv := range servers {
		tk, err := sv.Submit(Request{Prompt: seqTokens(128, i+1), OutputLen: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res := awaitResult(t, tk); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := servers[0].Stop(ctx); err != nil {
		t.Fatal(err)
	}
	agg, per := r.Snapshot()
	if len(per) != 2 || per[0].PrefixSummary == nil || per[1].PrefixSummary == nil {
		t.Fatalf("per-replica digests lost across a stop: %+v", per)
	}
	if agg.PrefixSummary == nil || len(agg.PrefixSummary.Roots) < 2 {
		t.Fatalf("aggregate digest lost the stopped replica's roots: %+v", agg.PrefixSummary)
	}
	if agg.SummaryAgeSeconds < 0 {
		t.Errorf("aggregate summary age negative: %v", agg.SummaryAgeSeconds)
	}
	// Tenant 2's follow-up still routes by affinity to the survivor.
	tk, err := r.Submit(Request{Prompt: append(append([]int(nil), seqTokens(128, 2)...), seqTokens(32, 9)...), OutputLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res := awaitResult(t, tk); res.Err != nil {
		t.Fatal(res.Err)
	}
	if hits := r.Stats().PrefixAffinityHits; hits != 1 {
		t.Errorf("affinity hits after failover = %d, want 1", hits)
	}
	if got := servers[1].Stats().PrefixHits; got == 0 {
		t.Error("affinity-routed request missed the survivor's cache")
	}
}

// TestAffinityEndToEndReusesCache: through live servers, affinity
// dispatch must send a shared-prefix follow-up to the replica that
// already holds the prefix, and the replica must serve it as a cache
// hit.
func TestAffinityEndToEndReusesCache(t *testing.T) {
	r, servers := func() (*Router, []*Server) {
		servers := make([]*Server, 2)
		backends := make([]Backend, 2)
		for i := range servers {
			servers[i] = newServer(t, Config{
				Engine: testEngine(t, engine.BackendZipServ), QueueDepth: 16, PrefixCache: true,
			})
			backends[i] = servers[i]
		}
		r, err := NewRouter(backends...)
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		return r, servers
	}()
	if err := r.EnableAffinity(AffinityConfig{LoadBand: 16}); err != nil {
		t.Fatal(err)
	}

	prefix := seqTokens(256, 5)
	// Seed the prefix on replica 1 specifically.
	tk, err := servers[1].Submit(Request{Prompt: prefix, OutputLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res := awaitResult(t, tk); res.Err != nil {
		t.Fatal(res.Err)
	}

	// Shared-prefix follow-ups through the router: every one must land
	// on replica 1 and reuse the cached blocks.
	const n = 4
	for i := 0; i < n; i++ {
		req := Request{Prompt: append(append([]int(nil), prefix...), seqTokens(48, 100+i)...), OutputLen: 8}
		tk, err := r.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		res := awaitResult(t, tk)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.CachedTokens < 256 {
			t.Errorf("follow-up %d reused %d cached tokens, want >= 256", i, res.CachedTokens)
		}
	}
	if got := servers[0].Stats().Completed; got != 0 {
		t.Errorf("cold replica served %d shared-prefix requests; affinity should pin them", got)
	}
	agg := r.Stats()
	if agg.PrefixAffinityHits != n {
		t.Errorf("affinity hits = %d, want %d", agg.PrefixAffinityHits, n)
	}
	if agg.PrefixHits < n {
		t.Errorf("fleet prefix hits = %d, want >= %d", agg.PrefixHits, n)
	}
	if agg.PrefixSummary == nil || agg.SummaryAgeSeconds < 0 {
		t.Errorf("fleet digest missing or age negative: %+v age=%v", agg.PrefixSummary, agg.SummaryAgeSeconds)
	}
}

// TestAggregateChunkBudgetMinIgnoresMonolithic (bugfix sweep): a
// monolithic replica reports ChunkBudgetMin 0 meaning "no per-iteration
// bound"; folding that 0 as the fleet minimum used to report the
// loosest replica as the tightest budget. The min must range over
// replicas that have a budget, 0 only when none do.
func TestAggregateChunkBudgetMinIgnoresMonolithic(t *testing.T) {
	adaptive := Stats{AdaptiveChunking: true, ChunkBudget: 512, ChunkBudgetMin: 256, ChunkBudgetMax: 2048}
	monolithic := Stats{} // whole-prompt prefill: budgets all 0
	agg := aggregateStats([]Stats{monolithic, adaptive})
	if agg.ChunkBudgetMin != 256 {
		t.Errorf("ChunkBudgetMin = %d, want 256 (monolithic 0 is not a budget)", agg.ChunkBudgetMin)
	}
	// Order must not matter.
	if got := aggregateStats([]Stats{adaptive, monolithic}).ChunkBudgetMin; got != 256 {
		t.Errorf("reversed ChunkBudgetMin = %d, want 256", got)
	}
	if got := aggregateStats([]Stats{monolithic, {}}).ChunkBudgetMin; got != 0 {
		t.Errorf("all-monolithic ChunkBudgetMin = %d, want 0", got)
	}
}

// TestFailAllCountsFailures (bugfix sweep): requests failed by the
// loop's terminal failAll path used to vanish from Stats.Failed — the
// loop exits before any further publish, so the snapshot said failed=0
// while every caller held an error.
func TestFailAllCountsFailures(t *testing.T) {
	s := newServer(t, Config{Engine: testEngine(t, engine.BackendZipServ), QueueDepth: 4})
	// Never started: submissions sit in the channel until failAll
	// drains them.
	boom := errors.New("boom")
	tks := make([]*Ticket, 3)
	for i := range tks {
		tk, err := s.Submit(Request{PromptLen: 32, OutputLen: 8})
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	s.failAll(nil, nil, boom)
	// Let the loop run once so it observes the stop and closes done —
	// otherwise the cleanup Stop would wait out its whole timeout.
	s.Start()
	for i, tk := range tks {
		select {
		case res := <-tk.Result():
			if !errors.Is(res.Err, boom) {
				t.Errorf("request %d err = %v, want boom", i, res.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d result never delivered", i)
		}
	}
	if got := s.Stats().Failed; got != 3 {
		t.Errorf("Stats.Failed = %d, want 3 failures delivered by failAll", got)
	}
}

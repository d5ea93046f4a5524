package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zipserv/internal/engine"
	"zipserv/internal/kvcache"
)

// Server is the live continuous-batching scheduler for one engine
// replica. It implements Backend.
type Server struct {
	cfg      Config
	submitCh chan *call
	stop     chan struct{}
	done     chan struct{}
	// kill force-fails the drain: Stop closes it when its context
	// expires, and the loop then abandons graceful draining, failing
	// everything undelivered into Stats.Failed instead of serving it.
	kill     chan struct{}
	killOnce sync.Once

	gate    sync.RWMutex // serialises Submit sends against Stop
	stopped bool

	// onDeath, installed by Router.EnableHealth before Start, receives
	// the requests a dying replica lost (crash, hang-at-stop, dropped
	// handoff) so the router can resurrect them on another replica.
	// Nil means lost requests fail to the client.
	onDeath func(from *Server, lost []*call)

	// doneScratch carries this iteration's claimed completions from
	// counting to delivery; scheduler goroutine only.
	doneScratch []doneJob

	// ids assigns request IDs. Private per server by default;
	// NewPooledRouter points every pooled replica at one shared counter,
	// because a sequence keeps its id across a prefill→decode handoff
	// and ids minted by different replicas must never collide.
	ids *atomic.Int64
	// handoffCh receives mid-generation sequences exported by a prefill
	// replica (acceptHandoff). handoffFn, set on prefill replicas by
	// NewPooledRouter before Start, dispatches an export to a decode
	// replica; nil means serve co-located.
	handoffCh chan *handoff
	handoffFn func(*handoff) error

	submitted atomic.Int64
	rejected  atomic.Int64
	startedAt atomic.Int64 // unix nanos; 0 until Start

	statsMu sync.Mutex
	stats   Stats
	recent  []time.Time // wall completion times within drainWindow

	// Prefix-summary age tracking (scheduler goroutine only): the trie
	// epoch of the last published digest and the virtual clock when it
	// changed, so publish can report how stale the advertised summary
	// is (Stats.SummaryAgeSeconds).
	lastSummaryEpoch int64
	lastSummaryClock float64

	// q is the admission queue: the bitmap-scoreboard core for the
	// configured built-in policy (scoreboard.go). Eligible requests are
	// bucketed at enqueue time and the running batch is mirrored into a
	// deadline scoreboard, so every per-slot decision is O(1) in queue
	// depth. Only the scheduler goroutine touches it.
	q admissionQueue

	startOnce sync.Once
}

// admissionQueue is the scheduler loop's view of its queue: queued
// requests (future and eligible), the policy's next pick, and the
// running batch it preempts from. schedCore is the one implementation
// New installs; the interface is the seam the whole-server differential
// tests use to swap in a linear-scan reference over the same policy.
type admissionQueue interface {
	add(c *call)
	len() int
	promote(now float64)
	peek() (*call, bool)
	nextArrival() float64
	removeEligible(id int)
	runningAdd(c *call)
	runningRemove(id int)
	victim(blockedDeadline float64) (int, bool)
	drainAll(f func(*call))
}

// The recent-completion window sizing the RecentDrainRPS estimate.
const (
	drainWindow = 30 * time.Second
	maxRecent   = 256
)

var _ Backend = (*Server)(nil)

// New builds a live server over the engine, rejecting configurations
// the scheduler loop has no defined behaviour for (negative budgets or
// windows, non-finite pacing) and any Policy other than the built-ins
// PolicyByName returns. Call Start to launch the scheduler goroutine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: config needs an engine")
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Policy == nil {
		cfg.Policy = FIFOPolicy{}
	}
	if cfg.AdaptiveChunking && cfg.TargetStepTime == 0 {
		cfg.TargetStepTime = DefaultTargetStepTime
	}
	core, err := newSchedCore(cfg.Policy)
	if err != nil {
		return nil, err
	}
	blocks := cfg.Engine.Plan().Blocks
	seedBudget := cfg.PrefillChunkTokens
	if cfg.AdaptiveChunking {
		seedBudget = engine.DefaultAdaptiveChunkMax
	}
	// Mirror the sizing controller's starting bound (the static value,
	// or the whole plan when unbounded) so a replica that has not yet
	// run an iteration reports the same pool target its loop will.
	seedPool := cfg.PrefixCacheBlocks
	if cfg.AdaptivePrefixCache && seedPool == 0 {
		seedPool = blocks
	}
	// An enabled-but-empty compressed store reports the neutral ratio
	// 1.0, matching what the loop's first publish will read.
	seedRatio := 0.0
	if cfg.CompressedCache {
		seedRatio = 1.0
	}
	return &Server{
		cfg:       cfg,
		q:         core,
		submitCh:  make(chan *call, cfg.QueueDepth),
		handoffCh: make(chan *handoff, cfg.QueueDepth),
		ids:       new(atomic.Int64),
		stop:      make(chan struct{}),
		kill:      make(chan struct{}),
		done:      make(chan struct{}),
		// One backing array for the drain-rate window instead of a
		// doubling cascade on the first completions.
		recent: make([]time.Time, 0, 64),
		// Seed the snapshot so a router's capacity-aware dispatch sees
		// real headroom before the loop's first publish.
		stats: Stats{
			FreeKVBlocks:           blocks,
			TotalKVBlocks:          blocks,
			Policy:                 cfg.Policy.Name(),
			PrefillChunkTokens:     cfg.PrefillChunkTokens,
			PrefixCacheEnabled:     cfg.PrefixCache,
			AdaptiveChunking:       cfg.AdaptiveChunking,
			ChunkBudget:            seedBudget,
			ChunkBudgetMin:         seedBudget,
			ChunkBudgetMax:         seedBudget,
			TargetStepTime:         cfg.TargetStepTime,
			AdaptivePrefixCache:    cfg.AdaptivePrefixCache,
			CachePoolTarget:        seedPool,
			CompressedCacheEnabled: cfg.CompressedCache,
			KVCompressionRatio:     seedRatio,
			Pool:                   string(cfg.Pool),
		},
	}, nil
}

// validateConfig rejects scheduler parameters outside their defined
// domain with an error naming the offending field, instead of letting
// a negative chunk budget, a negative admission window, a NaN time
// scale or a negative cache bound reach the loop as undefined
// behaviour. Flag-driven callers (zipserv-server) surface these at
// startup.
func validateConfig(cfg Config) error {
	if cfg.MaxBatch < 0 {
		return fmt.Errorf("serve: MaxBatch (-max-batch) must be >= 0, got %d", cfg.MaxBatch)
	}
	if cfg.PrefillChunkTokens < 0 {
		return fmt.Errorf("serve: PrefillChunkTokens (-prefill-chunk) must be >= 0, got %d", cfg.PrefillChunkTokens)
	}
	if cfg.AdmissionWindow < 0 {
		return fmt.Errorf("serve: AdmissionWindow (-admit-window) must be >= 0, got %s", cfg.AdmissionWindow)
	}
	if math.IsNaN(cfg.TimeScale) || math.IsInf(cfg.TimeScale, 0) || cfg.TimeScale < 0 {
		return fmt.Errorf("serve: TimeScale (-time-scale) must be finite and >= 0, got %v", cfg.TimeScale)
	}
	if cfg.PrefixCacheBlocks < 0 {
		return fmt.Errorf("serve: PrefixCacheBlocks (-prefix-cache-blocks) must be >= 0, got %d", cfg.PrefixCacheBlocks)
	}
	if math.IsNaN(cfg.TargetStepTime) || math.IsInf(cfg.TargetStepTime, 0) || cfg.TargetStepTime < 0 {
		return fmt.Errorf("serve: TargetStepTime (-target-step-time) must be finite and >= 0, got %v", cfg.TargetStepTime)
	}
	if cfg.TargetStepTime > 0 && !cfg.AdaptiveChunking {
		return fmt.Errorf("serve: TargetStepTime (-target-step-time) requires AdaptiveChunking (-adaptive-chunk)")
	}
	if cfg.AdaptiveChunking && cfg.PrefillChunkTokens > 0 {
		return fmt.Errorf("serve: AdaptiveChunking (-adaptive-chunk) and PrefillChunkTokens (-prefill-chunk) are mutually exclusive")
	}
	if cfg.AdaptivePrefixCache && !cfg.PrefixCache {
		return fmt.Errorf("serve: AdaptivePrefixCache (-adaptive-prefix-cache) requires PrefixCache (-prefix-cache)")
	}
	if cfg.CompressedCache && !cfg.PrefixCache {
		return fmt.Errorf("serve: CompressedCache (-compressed-cache) requires PrefixCache (-prefix-cache)")
	}
	switch cfg.Pool {
	case "", PoolMixed, PoolPrefill, PoolDecode:
	default:
		return fmt.Errorf("serve: unknown Pool (-pool) %q, want prefill, decode or mixed", cfg.Pool)
	}
	return nil
}

// Start launches the scheduler goroutine. Safe to call once.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		s.startedAt.Store(time.Now().UnixNano())
		go s.loop()
	})
}

// Stop shuts the server down gracefully: new submissions are rejected
// with ErrStopped immediately, while everything already queued or in
// flight is served to completion. When ctx expires (including a
// context that is already expired on entry) the drain is force-failed
// instead of abandoned: the scheduler promptly fails every undelivered
// request — callers get their error, Stats.Failed counts them — and
// Stop returns ctx.Err() once that accounting has landed.
func (s *Server) Stop(ctx context.Context) error {
	s.gate.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	s.gate.Unlock()
	if s.startedAt.Load() == 0 {
		// Never started: no scheduler goroutine will ever close done,
		// and there is nothing queued to drain or fail.
		return nil
	}
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed mid-drain: force-fail what is left. The loop
	// observes kill at its next iteration edge (or idle wakeup), fails
	// everything undelivered and exits; waiting for done here means the
	// failure accounting is published before Stop returns.
	s.killOnce.Do(func() { close(s.kill) })
	<-s.done
	return ctx.Err()
}

// Submit offers a request to the admission queue without blocking: it
// fails fast with ErrQueueFull when the queue is at capacity,
// ErrStopped after Stop, or ErrNeverFits when the request exceeds the
// device's total KV plan.
func (s *Server) Submit(req Request) (*Ticket, error) {
	if len(req.Prompt) > 0 {
		if req.PromptLen == 0 {
			req.PromptLen = len(req.Prompt)
		} else if req.PromptLen != len(req.Prompt) {
			return nil, fmt.Errorf("serve: prompt_len %d does not match %d prompt tokens",
				req.PromptLen, len(req.Prompt))
		}
	}
	if req.PromptLen <= 0 || req.OutputLen <= 0 {
		return nil, fmt.Errorf("serve: prompt/output lengths must be positive, got %d/%d",
			req.PromptLen, req.OutputLen)
	}
	if !s.cfg.Engine.FitsKV(req.PromptLen, req.OutputLen) {
		return nil, fmt.Errorf("%w: needs %d KV blocks, plan has %d", ErrNeverFits,
			kvcache.BlocksFor(req.PromptLen+req.OutputLen, kvcache.DefaultBlockTokens),
			s.cfg.Engine.Plan().Blocks)
	}
	arrival := req.Arrival
	if arrival < 0 {
		arrival = ArrivalNow // normalised; assigned the live clock at drain
	}
	class := req.Class
	switch class {
	case "":
		class = ClassInteractive
	case ClassInteractive, ClassBatch:
	default:
		// Reject rather than default: an unknown class would silently
		// schedule as top-priority interactive.
		return nil, fmt.Errorf("serve: unknown request class %q", class)
	}
	id := int(s.ids.Add(1))
	c := &call{
		req: engine.Request{
			ID:             id,
			ArrivalSeconds: arrival,
			PromptLen:      req.PromptLen,
			OutputLen:      req.OutputLen,
			Prompt:         req.Prompt,
		},
		clientID:  id,
		class:     class,
		ttftSLO:   req.TTFTDeadline,
		submitted: time.Now(),
		events:    make(chan Event, 8),
		result:    make(chan Result, 1),
	}

	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.stopped {
		return nil, ErrStopped
	}
	c.ticket = Ticket{ID: c.clientID, events: c.events, result: c.result}
	select {
	case s.submitCh <- c:
		s.submitted.Add(1)
		return &c.ticket, nil
	default:
		s.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// Stats returns an aggregate snapshot. Safe for concurrent use.
func (s *Server) Stats() Stats {
	now := time.Now()
	s.statsMu.Lock()
	st := s.stats
	s.pruneRecentLocked(now)
	if n := len(s.recent); n > 0 {
		// On the first request burst every retained completion can carry
		// the same wall timestamp as this snapshot, making the window
		// span exactly zero (and clock adjustments could even drive it
		// negative) — dividing by it would publish an infinite drain
		// rate and poison the Retry-After estimate downstream. Clamp the
		// span to a 1s floor, which also keeps sub-second bursts from
		// overstating the sustained rate.
		span := now.Sub(s.recent[0]).Seconds()
		if span < 1 { // covers the zero/negative degenerate spans too
			span = 1
		}
		st.RecentDrainRPS = float64(n) / span
	}
	s.statsMu.Unlock()
	st.Submitted = s.submitted.Load()
	st.Rejected = s.rejected.Load()
	// The published snapshot counts only the loop's admission queue;
	// requests still buffered in the submit and handoff channels are
	// queued too.
	st.Queued += len(s.submitCh) + len(s.handoffCh)
	if started := s.startedAt.Load(); started != 0 {
		st.WallSeconds = time.Since(time.Unix(0, started)).Seconds()
	}
	if st.SimSeconds > 0 {
		st.Goodput = float64(st.Completed) / st.SimSeconds
		st.Throughput = float64(st.OutputTokens) / st.SimSeconds
	}
	return st
}

// loop is the scheduler goroutine: admission → prefill → decode, one
// iteration at a time, until stopped and drained.
func (s *Server) loop() {
	defer close(s.done)

	sp, err := engine.NewStepper(s.cfg.Engine)
	if err != nil {
		s.failAll(nil, nil, err)
		return
	}
	sp.PackedPrefill = !s.cfg.PaddedPrefill
	sp.PrefillChunkTokens = s.cfg.PrefillChunkTokens
	if s.cfg.Pool == PoolPrefill {
		// A prefill replica's steady state has no decode batch: run the
		// adaptive chunk controller at its decode-free operating point
		// instead of chasing a headroom that never exists.
		sp.DecodeFree = true
	}
	if s.cfg.AdaptiveChunking {
		if err := sp.EnableAdaptiveChunking(s.cfg.TargetStepTime, 0, 0); err != nil {
			s.failAll(nil, nil, err)
			return
		}
	}
	if s.cfg.PrefixCache {
		if err := sp.EnablePrefixCache(s.cfg.PrefixCacheBlocks); err != nil {
			s.failAll(nil, nil, err)
			return
		}
		if s.cfg.AdaptivePrefixCache {
			if err := sp.EnableAdaptivePrefixCache(0, 0); err != nil {
				s.failAll(nil, nil, err)
				return
			}
		}
		if s.cfg.CompressedCache {
			if err := sp.EnableCompressedCache(); err != nil {
				s.failAll(nil, nil, err)
				return
			}
		}
	}
	if f := s.cfg.Faults; f.active() {
		// Scripted faults are pure functions of this replica's virtual
		// clock (docs/robustness.md), so a chaos run replays
		// bit-identically: slowdown dilates every step's virtual cost,
		// and codec faults degrade cold-block freezes to plain parking.
		sp.TimeDilation = f.slowFactorAt
		if s.cfg.CompressedCache {
			sp.SetCodecFault(func() bool { return f.codecFailingAt(sp.Clock()) })
		}
	}

	var (
		pendingHO []*handoff // handed-off sequences awaiting import
		inflight  = make(map[int]*call)
		agg       aggregate
		wasIdle   bool
	)
	for {
		// Force-fail check first: Stop's context expired, so the drain
		// is abandoned — every undelivered request fails promptly.
		select {
		case <-s.kill:
			s.failAll(pendingHO, inflight, fmt.Errorf("%w: drain deadline exceeded", ErrStopped))
			return
		default:
		}
		// Scripted death next, on this replica's own virtual clock.
		if f := s.cfg.Faults; f.active() {
			if f.crashedAt(sp.Clock()) {
				s.crash(pendingHO, inflight)
				return
			}
			if f.hungAt(sp.Clock()) {
				s.hang(pendingHO, inflight)
				return
			}
		}
		// Observe idleness before draining the channel: whatever the
		// drain below (or the blocking select) picks up is then the
		// first work of a fresh batch, eligible for the admission
		// window. Re-arming anywhere later would miss bursts whose
		// first request lands between the end of one batch and the
		// next iteration's drain.
		if sp.InFlight() == 0 && s.q.len() == 0 && len(pendingHO) == 0 {
			wasIdle = true
		}
		s.drain(sp)
		pendingHO = s.drainHandoffs(pendingHO)

		if sp.InFlight() == 0 && s.q.len() == 0 && len(pendingHO) == 0 {
			// Fully idle: block for the next submission, handoff or
			// shutdown.
			select {
			case c := <-s.submitCh:
				s.arrive(sp, c)
				continue
			case h := <-s.handoffCh:
				pendingHO = append(pendingHO, h)
				continue
			case <-s.kill:
				s.failAll(pendingHO, inflight, fmt.Errorf("%w: drain deadline exceeded", ErrStopped))
				return
			case <-s.stop:
				// Anything that raced past the gate before Stop is
				// buffered; serve it before exiting.
				s.drain(sp)
				pendingHO = s.drainHandoffs(pendingHO)
				if s.q.len() > 0 || len(pendingHO) > 0 {
					continue
				}
				return
			}
		}

		// First work after an idle stretch: hold the admission window
		// open so a wall-clock burst coalesces into one prefill batch.
		// The edge lives here rather than in the idle select because
		// the top-of-loop drain can win the race for a burst's first
		// submission and would otherwise bypass the window.
		if wasIdle {
			wasIdle = false
			s.coalesce(sp)
		}

		// Land handed-off sequences before admission: an import advances
		// the clock past its transfer, which can make queued arrivals
		// eligible for the same batch.
		pendingHO = s.importHandoffs(sp, pendingHO, inflight, &agg)
		s.admit(sp, inflight, &agg)

		// Prefill newcomers (packed, at most one chunk budget's worth of
		// prompt tokens), then one decode iteration.
		prefilled, prefillElapsed := sp.Prefill()
		for _, m := range prefilled {
			if c := inflight[m.ID]; c != nil {
				c.emit(Event{Type: EventFirstToken, SimSeconds: m.FirstToken, TTFT: m.TTFT})
			}
		}
		if s.handoffFn != nil {
			s.dispatchHandoffs(sp, prefilled, inflight, &agg)
		}
		finished, decodeElapsed, err := sp.DecodeStep()
		if err != nil {
			// Scheduler invariant broken (unreachable under the
			// conservative reservation): fail everything and halt.
			s.failAll(pendingHO, inflight, err)
			return
		}
		// Claim each completion before counting it: a request that was
		// resurrected elsewhere (or served through a duplicated handoff)
		// may have been delivered by another replica already, and a lost
		// claim means this copy's completion must not be counted or
		// delivered a second time.
		jobs := s.doneScratch[:0]
		for _, m := range finished {
			c := inflight[m.ID]
			delete(inflight, m.ID)
			s.q.runningRemove(m.ID)
			if c == nil || !c.claim() {
				continue
			}
			agg.complete(m)
			jobs = append(jobs, doneJob{c: c, m: m})
		}
		if len(jobs) > 0 {
			s.noteCompletions(len(jobs))
		}
		// Close the admission epoch: the cache-sizing controller
		// consumes this iteration's admission outcomes and resizes the
		// cached pool before the snapshot below reports the new target.
		sp.AdaptEpoch()
		// Publish before delivering results: a caller that has seen a
		// request's Result must observe stats that include it.
		s.publish(sp, s.q.len()+len(pendingHO), len(inflight), &agg)
		for i, j := range jobs {
			c, m := j.c, j.m
			c.emit(Event{Type: EventFinished, SimSeconds: m.Finished})
			c.deliver(Result{
				PromptLen: c.req.PromptLen, OutputLen: c.req.OutputLen,
				Arrival: m.Arrival, Admitted: m.Admitted,
				FirstToken: m.FirstToken, Finished: m.Finished,
				TTFT: m.TTFT, TPOT: m.TPOT,
				QueueWait: m.Admitted - m.Arrival, Latency: m.Latency,
				CachedTokens: m.CachedTokens,
			})
			jobs[i].c = nil // do not pin delivered calls via the scratch
		}
		s.doneScratch = jobs[:0]
		s.pace(prefillElapsed + decodeElapsed)
	}
}

// doneJob pairs a claimed completion with its metrics between the
// counting pass and the delivery pass of one iteration.
type doneJob struct {
	c *call
	m engine.RequestMetrics
}

// pace sleeps this iteration's virtual step duration × TimeScale so
// the virtual clock advances no faster than scaled wall time: sparse
// live arrivals land mid-flight and batch, instead of each draining
// completely before the next one arrives. Idle fast-forwards (arrival
// jumps) are never paced — only computed steps are.
func (s *Server) pace(simElapsed float64) {
	if s.cfg.TimeScale <= 0 || simElapsed <= 0 {
		return
	}
	select {
	case <-time.After(time.Duration(simElapsed * s.cfg.TimeScale * float64(time.Second))):
	case <-s.stop:
		// Draining: pacing only exists so new live arrivals can batch,
		// and Submit already rejects them — serve what's left flat out
		// instead of stretching the drain by the time scale.
	}
}

// coalesce implements the micro-batch admission window: an idle
// scheduler that just received its first live submission keeps
// draining arrivals for up to AdmissionWindow of wall time before
// scheduling, so a burst spread over a few milliseconds prefills as
// one batch. Shutdown cuts the window short; everything gathered is
// still served.
func (s *Server) coalesce(sp *engine.Stepper) {
	if s.cfg.AdmissionWindow <= 0 {
		return
	}
	timer := time.NewTimer(s.cfg.AdmissionWindow)
	defer timer.Stop()
	for {
		select {
		case c := <-s.submitCh:
			s.arrive(sp, c)
		case <-timer.C:
			return
		case <-s.stop:
			return
		}
	}
}

// admit fills the batch from the admission queue in policy order: the
// eligible view is maintained incrementally (clock advances promote
// pending→eligible in arrival order; aged batch requests move rank), so
// each admission decision — promote, peek, remove — is O(1) in queue
// depth and allocation-free in steady state. The chosen request is
// admitted while its conservative KV reservation fits and the batch cap
// allows, preempting through makeRoom when it does not fit.
func (s *Server) admit(sp *engine.Stepper, inflight map[int]*call, agg *aggregate) {
	q := s.q
	for q.len() > 0 {
		if s.cfg.MaxBatch > 0 && sp.InFlight() >= s.cfg.MaxBatch {
			break
		}
		q.promote(sp.Clock())
		c, ok := q.peek()
		if !ok {
			if sp.InFlight() > 0 {
				break // future arrivals; keep decoding until then
			}
			sp.AdvanceTo(q.nextArrival()) // idle fast-forward
			continue
		}
		if !sp.CanAdmitRequest(c.req) {
			s.makeRoom(sp, c, inflight, agg)
			if !sp.CanAdmitRequest(c.req) {
				if sp.InFlight() > 0 {
					break // capacity frees up as sequences finish
				}
				// Defensive guard against a spin: unreachable while
				// Submit's whole-plan check mirrors CanAdmit at an empty
				// system, but admission must always make progress even
				// if those drift apart.
				agg.failed++
				c.finish(Result{Err: fmt.Errorf("%w: %d+%d tokens vs %d-block plan",
					ErrNeverFits, c.req.PromptLen, c.req.OutputLen, s.cfg.Engine.Plan().Blocks)})
				q.removeEligible(c.req.ID)
				continue
			}
		}
		if err := sp.Admit(c.req); err != nil {
			agg.failed++
			c.finish(Result{Err: err})
			q.removeEligible(c.req.ID)
			continue
		}
		c.admittedAt = sp.Clock()
		inflight[c.req.ID] = c
		q.removeEligible(c.req.ID)
		q.runningAdd(c)
		c.emit(Event{Type: EventAdmitted, SimSeconds: sp.Clock(),
			CachedTokens: sp.CachedTokensOf(c.req.ID)})
	}
}

// makeRoom preempts victims until blocked fits or the policy declines.
// The victim is the running scoreboard's reverse-CLZ pick. Each
// victim's sequence is evicted from the stepper (returning every KV
// block it held), removed from the running set and requeued with its
// original arrival (and hence original rank keys), to be re-admitted —
// and fully recomputed — later.
func (s *Server) makeRoom(sp *engine.Stepper, blocked *call, inflight map[int]*call, agg *aggregate) {
	for !sp.CanAdmitRequest(blocked.req) {
		vid, ok := s.q.victim(blocked.deadline())
		if !ok {
			return
		}
		req, ok := sp.Preempt(vid)
		if !ok {
			return // stale view; unreachable from the loop
		}
		vc := inflight[req.ID]
		delete(inflight, req.ID)
		s.q.runningRemove(req.ID)
		vc.preempts++
		agg.preempted++
		vc.emit(Event{Type: EventPreempted, SimSeconds: sp.Clock()})
		s.q.add(vc)
	}
}

// acceptHandoff offers an exported sequence to this replica without
// blocking, mirroring Submit's gating: ErrStopped after Stop,
// ErrQueueFull when the handoff queue is at capacity. Called from a
// prefill replica's scheduler goroutine through the pooled router's
// dispatch ranking.
func (s *Server) acceptHandoff(h *handoff) error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.stopped {
		return ErrStopped
	}
	select {
	case s.handoffCh <- h:
		return nil
	default:
		return ErrQueueFull
	}
}

// dispatchHandoffs exports every sequence that just produced its first
// token and offers it to a decode replica. A successful dispatch
// transfers ownership of the call — the importing replica decodes it to
// completion and delivers the result; this server must not touch the
// call again. A failed dispatch (every decode replica stopped or full)
// falls back to co-located serving by re-importing the export into this
// same stepper, which the prefix trie makes nearly free: the blocks the
// export released are still advertised, so the claim reuses them
// instead of expanding the wire payload.
func (s *Server) dispatchHandoffs(sp *engine.Stepper, prefilled []engine.RequestMetrics, inflight map[int]*call, agg *aggregate) {
	for _, m := range prefilled {
		c := inflight[m.ID]
		if c == nil || c.req.OutputLen <= 1 {
			continue // nothing left to decode elsewhere
		}
		exp, err := sp.ExportSequence(m.ID)
		if err != nil {
			continue // finished during prefill; unreachable for OutputLen > 1
		}
		if s.cfg.Faults.takeDrop(sp.Clock()) {
			// Scripted transfer loss: the export left this replica (the
			// sequence and its blocks are gone from the stepper) and
			// never arrives anywhere. The request is lost exactly like a
			// crash victim's — resurrected by the health router when one
			// is installed, failed to the client otherwise.
			delete(inflight, m.ID)
			s.q.runningRemove(m.ID)
			agg.handoffDrops++
			agg.lost++
			if s.onDeath != nil {
				s.onDeath(s, []*call{c})
			} else if c.finish(Result{Err: fmt.Errorf("%w: handoff transfer dropped", ErrStopped)}) {
				agg.failed++
			}
			continue
		}
		bytes := exp.CompressedBytes()
		c.handoffs++ // before dispatch: the new owner may finish immediately
		if s.handoffFn(&handoff{exp: exp, c: c}) != nil {
			// Nothing crossed the wire: zero the priced transfer and thaw
			// the sequence back into this stepper.
			c.handoffs--
			agg.handoffFailures++
			exp.TransferSeconds = 0
			if imerr := sp.ImportSequence(exp); imerr != nil {
				// Unreachable: the export's footprint was resident here a
				// moment ago and its reservation was just released.
				delete(inflight, m.ID)
				s.q.runningRemove(m.ID)
				agg.failed++
				c.finish(Result{Err: imerr})
			}
			continue
		}
		delete(inflight, m.ID)
		s.q.runningRemove(m.ID)
		agg.handoffs++
		agg.handoffBytes += bytes
	}
}

// importHandoffs lands pending handed-off sequences in the decode
// batch. A handoff whose transfer completes in this replica's virtual
// future waits while the batch keeps decoding (a busy replica never
// stalls on an in-flight transfer; an idle one fast-forwards to it);
// an import that does not fit yet is retried next iteration (capacity
// frees as sequences finish); a duplicate of a sequence already in
// flight is dropped, because the earlier copy is serving the call;
// anything else fails the request.
func (s *Server) importHandoffs(sp *engine.Stepper, hos []*handoff, inflight map[int]*call, agg *aggregate) []*handoff {
	if len(hos) == 0 {
		return hos
	}
	keep := hos[:0]
	for _, h := range hos {
		if h.c.done.Load() {
			continue // late duplicate of an already-delivered request
		}
		if s.cfg.MaxBatch > 0 && sp.InFlight() >= s.cfg.MaxBatch {
			keep = append(keep, h)
			continue
		}
		if ready := h.exp.ExportedAt + h.exp.TransferSeconds; ready > sp.Clock() && sp.InFlight() > 0 {
			// The transfer is still in this replica's virtual future:
			// keep decoding and land the import once the clock catches
			// up, instead of stalling the running batch on a jump to the
			// ready time. Only an idle replica fast-forwards to it.
			keep = append(keep, h)
			continue
		}
		err := sp.ImportSequence(h.exp)
		switch {
		case err == nil:
			inflight[h.exp.Req.ID] = h.c
			s.q.runningAdd(h.c)
			agg.handoffImports++
			h.c.emit(Event{Type: EventHandoff, SimSeconds: sp.Clock()})
		case errors.Is(err, engine.ErrSequenceInFlight):
			// Duplicate handoff: the import changed nothing; drop it.
		case errors.Is(err, engine.ErrImportNoCapacity) && sp.InFlight() > 0:
			keep = append(keep, h) // retry as the batch thins
		default:
			agg.failed++
			h.c.finish(Result{Err: err})
		}
	}
	// Clear the filtered tail so the backing array does not pin exports.
	for i := len(keep); i < len(hos); i++ {
		hos[i] = nil
	}
	return keep
}

// drainHandoffs empties the handoff channel without blocking.
func (s *Server) drainHandoffs(hos []*handoff) []*handoff {
	for {
		select {
		case h := <-s.handoffCh:
			hos = append(hos, h)
		default:
			return hos
		}
	}
}

// drain empties the submit channel without blocking.
func (s *Server) drain(sp *engine.Stepper) {
	for {
		select {
		case c := <-s.submitCh:
			s.arrive(sp, c)
		default:
			return
		}
	}
}

// arrive stamps live submissions with the current virtual clock and
// queues them for admission.
func (s *Server) arrive(sp *engine.Stepper, c *call) {
	if c.req.ArrivalSeconds < 0 {
		// A resurrected call carries a deterministic sim-time backoff
		// (retry count × the router's RetryBackoff): it arrives that far
		// into this replica's virtual future, so retries space out
		// identically on every replay.
		c.req.ArrivalSeconds = sp.Clock() + c.backoff
		c.backoff = 0
	}
	s.q.add(c)
}

// aggregate accumulates completion statistics inside the loop.
type aggregate struct {
	completed    int64
	failed       int64
	preempted    int64
	ttftSum      float64
	tpotSum      float64
	queueWaitSum float64

	handoffs        int64
	handoffBytes    int64
	handoffFailures int64
	handoffImports  int64

	lost         int64 // requests lost mid-loop (dropped handoffs)
	handoffDrops int64 // scripted transfer losses
}

func (a *aggregate) complete(m engine.RequestMetrics) {
	a.completed++
	a.ttftSum += m.TTFT
	a.tpotSum += m.TPOT
	a.queueWaitSum += m.Admitted - m.Arrival
}

// publish copies a stats snapshot for concurrent readers.
func (s *Server) publish(sp *engine.Stepper, queued, active int, agg *aggregate) {
	if s.cfg.Faults.statsStaleAt(sp.Clock()) {
		// Scripted stats staleness: the snapshot stays frozen at its
		// last published value — a router keeps ranking this replica on
		// stale load and a stale prefix digest. Only the digest's age
		// keeps advancing, which is precisely the signal affinity's
		// MaxSummaryAge guard detects.
		s.statsMu.Lock()
		if s.stats.PrefixSummary != nil {
			s.stats.SummaryAgeSeconds = sp.Clock() - s.lastSummaryClock
		}
		s.statsMu.Unlock()
		return
	}
	st := Stats{
		Completed: agg.completed,
		Failed:    agg.failed,
		Preempted: agg.preempted,
		Queued:    queued,
		Active:    active,

		FreeKVBlocks:  sp.FreeBlocks(),
		TotalKVBlocks: s.cfg.Engine.Plan().Blocks,
		Policy:        s.cfg.Policy.Name(),

		Pool:            string(s.cfg.Pool),
		Handoffs:        agg.handoffs,
		HandoffBytes:    agg.handoffBytes,
		HandoffFailures: agg.handoffFailures,
		HandoffImports:  agg.handoffImports,

		LostRequests:   agg.lost,
		HandoffDrops:   agg.handoffDrops,
		CodecFallbacks: sp.CodecFallbacks(),

		SimSeconds:      sp.Clock(),
		OutputTokens:    sp.OutputTokens(),
		DecodeSteps:     sp.DecodeSteps(),
		PeakConcurrency: sp.PeakConcurrency(),

		PrefillChunkTokens: s.cfg.PrefillChunkTokens,
		PrefillIterations:  sp.PrefillIterations(),
		PrefillTokens:      sp.PrefillTokens(),
		MaxDecodeGap:       sp.MaxDecodeGap(),

		PrefixCacheEnabled: sp.PrefixCacheEnabled(),
		PrefixHits:         sp.PrefixHits(),
		PrefixTokensSaved:  sp.PrefixTokensSaved(),
		CachedKVBlocks:     sp.CachedKVBlocks(),
		SharedKVBlocks:     sp.SharedKVBlocks(),

		CompressedCacheEnabled: sp.CompressedCacheEnabled(),
		CompressedKVBlocks:     sp.CompressedKVBlocks(),
		CompressedKVBytes:      sp.CompressedKVBytes(),
		KVCompressionRatio:     sp.KVCompressionRatio(),
		DecompressClaims:       sp.DecompressClaims(),

		AdaptiveChunking:    sp.AdaptiveChunking(),
		ChunkBudget:         sp.ChunkBudget(),
		ChunkBudgetMin:      sp.ChunkBudget(),
		ChunkBudgetMax:      sp.ChunkBudget(),
		TargetStepTime:      sp.TargetStepTime(),
		StepTimeEWMA:        sp.StepTimeEWMA(),
		AdaptivePrefixCache: sp.AdaptivePrefixCache(),
		CachePoolTarget:     sp.CachePoolTarget(),
		CacheHitRateEWMA:    sp.CacheHitRateEWMA(),
		CachePressureEWMA:   sp.CachePressureEWMA(),
	}
	// Publish the prefix-trie digest on the admission-epoch cadence
	// (publish runs right after AdaptEpoch closes the epoch). The digest
	// is memoized per trie generation, so an unchanged trie republishes
	// the same immutable pointer for free; its age is virtual time since
	// the advertised content last changed.
	if sum := sp.PrefixSummary(); sum != nil {
		if sum.Epoch != s.lastSummaryEpoch {
			s.lastSummaryEpoch = sum.Epoch
			s.lastSummaryClock = sp.Clock()
		}
		st.PrefixSummary = sum
		st.SummaryAgeSeconds = sp.Clock() - s.lastSummaryClock
	}
	if agg.completed > 0 {
		st.MeanTTFT = agg.ttftSum / float64(agg.completed)
		st.MeanTPOT = agg.tpotSum / float64(agg.completed)
		st.MeanQueueWait = agg.queueWaitSum / float64(agg.completed)
	}
	s.statsMu.Lock()
	s.stats = st
	s.statsMu.Unlock()
}

// noteCompletions stamps n wall-clock completions into the recent
// window behind the RecentDrainRPS estimate.
func (s *Server) noteCompletions(n int) {
	now := time.Now()
	s.statsMu.Lock()
	for i := 0; i < n; i++ {
		s.recent = append(s.recent, now)
	}
	s.pruneRecentLocked(now)
	s.statsMu.Unlock()
}

// pruneRecentLocked drops completion stamps outside drainWindow and
// bounds the window length. Callers hold statsMu.
func (s *Server) pruneRecentLocked(now time.Time) {
	cutoff := now.Add(-drainWindow)
	i := 0
	for i < len(s.recent) && s.recent[i].Before(cutoff) {
		i++
	}
	if over := len(s.recent) - i - maxRecent; over > 0 {
		i += over
	}
	if i > 0 {
		s.recent = append(s.recent[:0], s.recent[i:]...)
	}
}

// failAll terminates every queued, handed-off and in-flight request
// with err, and folds the failures it delivered into the published
// snapshot — the loop is exiting, so no later publish will ever count
// them, and without this a halted server would report failed=0 while
// every caller holds an error.
func (s *Server) failAll(hos []*handoff, inflight map[int]*call, err error) {
	s.gate.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	s.gate.Unlock()
	var failed int64
	fail := func(c *call) {
		if c.finish(Result{Err: err}) {
			failed++ // delivered here, not a duplicate someone else finished
		}
	}
	for {
		select {
		case c := <-s.submitCh:
			fail(c)
		case h := <-s.handoffCh:
			hos = append(hos, h)
		default:
			s.q.drainAll(fail)
			for _, h := range hos {
				fail(h.c)
			}
			for _, c := range inflight {
				fail(c)
			}
			s.statsMu.Lock()
			s.stats.Failed += failed
			s.statsMu.Unlock()
			return
		}
	}
}

// crash is a scripted replica death (FaultCrash): the gate closes so
// new submissions fail with ErrStopped, and every request this replica
// held — queued, handed off to it, or mid-generation — is lost,
// counted in Stats.LostRequests, and either handed to the health
// router's resurrection hook or failed to the client. The scheduler
// goroutine exits afterwards; a later Stop returns immediately.
func (s *Server) crash(hos []*handoff, inflight map[int]*call) {
	s.die(hos, inflight, fmt.Errorf("%w: replica crashed", ErrStopped))
}

// hang is a scripted livelock (FaultHang): the scheduler stops making
// progress but the replica stays up — submissions keep landing until
// the queue fills, nothing completes, stats freeze. The stranded
// requests are lost (resurrected or failed) only when the replica is
// stopped, exactly like a real wedged process.
func (s *Server) hang(hos []*handoff, inflight map[int]*call) {
	select {
	case <-s.stop:
	case <-s.kill:
	}
	s.die(hos, inflight, fmt.Errorf("%w: replica hung", ErrStopped))
}

// die closes the gate, collects every request the replica still holds
// into a deterministic lost set, counts it into Stats.LostRequests and
// routes it through loseCalls.
func (s *Server) die(hos []*handoff, inflight map[int]*call, reason error) {
	s.gate.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	s.gate.Unlock()
	lost := make([]*call, 0, s.q.len()+len(inflight)+len(hos))
	collect := func(c *call) {
		if !c.done.Load() {
			lost = append(lost, c)
		}
	}
	// Everything buffered raced past the gate before it closed; it
	// goes down with the replica too.
	for {
		select {
		case c := <-s.submitCh:
			collect(c)
			continue
		case h := <-s.handoffCh:
			hos = append(hos, h)
			continue
		default:
		}
		break
	}
	s.q.drainAll(collect)
	for _, h := range hos {
		collect(h.c)
	}
	for _, c := range inflight {
		collect(c)
	}
	// Map iteration above is randomised; resurrection re-dispatches in
	// this order, so sort by scheduler id to keep chaos replays
	// bit-identical.
	sort.Slice(lost, func(i, j int) bool { return lost[i].req.ID < lost[j].req.ID })
	s.statsMu.Lock()
	s.stats.LostRequests += int64(len(lost))
	s.statsMu.Unlock()
	s.loseCalls(lost, reason)
}

// loseCalls routes requests a dying replica cannot serve: to the
// health router's resurrection hook when installed, to the client as
// failures otherwise. Failures delivered here fold straight into the
// published snapshot — the loop is exiting, no publish will follow.
func (s *Server) loseCalls(lost []*call, err error) {
	if len(lost) == 0 {
		return
	}
	if s.onDeath != nil {
		s.onDeath(s, lost)
		return
	}
	var failed int64
	for _, c := range lost {
		if c.finish(Result{Err: err}) {
			failed++
		}
	}
	s.statsMu.Lock()
	s.stats.Failed += failed
	s.statsMu.Unlock()
}

// resubmit re-enqueues a request another replica lost: resurrection's
// entry point, called by the health router. A fresh scheduler id is
// minted from the (fleet-shared) counter so a late duplicate delivery
// from the old owner stays harmless, and the arrival restamps at this
// replica's live clock plus the call's deterministic backoff.
func (s *Server) resubmit(c *call) error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.stopped {
		return ErrStopped
	}
	c.req.ID = int(s.ids.Add(1))
	c.req.ArrivalSeconds = ArrivalNow
	select {
	case s.submitCh <- c:
		s.submitted.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

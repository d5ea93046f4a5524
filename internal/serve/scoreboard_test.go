package serve

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"zipserv/internal/engine"
)

// linearQueue is the reference admission queue: the slice scan the
// Policy interface's Next/Victim contract describes, rebuilding the
// eligible and running views on every call. It implements the same
// admissionQueue operations as the scoreboard core, so the fuzz target
// drives both through identical calls and the whole-server
// differentials install it in place of the core (Server.q); the
// built-in policies must schedule identically on both.
type linearQueue struct {
	p       Policy
	now     float64
	pending []*call // queue order; preemption requeues at the back
	running map[int]*call
}

func newLinearQueue(p Policy) *linearQueue {
	return &linearQueue{p: p, running: map[int]*call{}}
}

func (q *linearQueue) add(c *call)          { q.pending = append(q.pending, c) }
func (q *linearQueue) len() int             { return len(q.pending) }
func (q *linearQueue) promote(now float64)  { q.now = now }
func (q *linearQueue) runningAdd(c *call)   { q.running[c.req.ID] = c }
func (q *linearQueue) runningRemove(id int) { delete(q.running, id) }

// peek offers the arrived requests, in queue order, to Policy.Next.
func (q *linearQueue) peek() (*call, bool) {
	var views []Pending
	var idxs []int
	for i, c := range q.pending {
		if c.req.ArrivalSeconds <= q.now {
			views = append(views, Pending{
				ID: c.req.ID, PromptLen: c.req.PromptLen, OutputLen: c.req.OutputLen,
				Arrival: c.req.ArrivalSeconds, Class: c.class, Deadline: c.deadline(),
			})
			idxs = append(idxs, i)
		}
	}
	if len(views) == 0 {
		return nil, false
	}
	return q.pending[idxs[q.p.Next(q.now, views)]], true
}

func (q *linearQueue) nextArrival() float64 {
	next := math.Inf(1)
	for _, c := range q.pending {
		if a := c.req.ArrivalSeconds; a > q.now && a < next {
			next = a
		}
	}
	return next
}

func (q *linearQueue) removeEligible(id int) {
	for i, c := range q.pending {
		if c.req.ID == id {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return
		}
	}
}

// victim offers the running batch, sorted by submission id, to
// Policy.Victim.
func (q *linearQueue) victim(blockedDeadline float64) (int, bool) {
	views := make([]Running, 0, len(q.running))
	for _, c := range q.running {
		views = append(views, Running{
			ID: c.req.ID, PromptLen: c.req.PromptLen, OutputLen: c.req.OutputLen,
			Arrival: c.req.ArrivalSeconds, Admitted: c.admittedAt, Class: c.class, Deadline: c.deadline(),
		})
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	v := q.p.Victim(q.now, Pending{Deadline: blockedDeadline}, views)
	if v < 0 {
		return 0, false
	}
	return views[v].ID, true
}

func (q *linearQueue) drainAll(f func(*call)) {
	for _, c := range q.pending {
		f(c)
	}
	q.pending = nil
}

// --- bitset / key-transform properties -------------------------------

func TestBitset4096MinMax(t *testing.T) {
	var b bitset4096
	if b.min() != -1 || b.max() != -1 {
		t.Fatalf("empty bitset min/max = %d/%d, want -1/-1", b.min(), b.max())
	}
	rng := rand.New(rand.NewSource(1))
	ref := map[int]bool{}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(sbBuckets)
		if rng.Intn(2) == 0 {
			b.set(i)
			ref[i] = true
		} else {
			b.clear(i)
			delete(ref, i)
		}
		wantMin, wantMax := -1, -1
		for k := range ref {
			if wantMin < 0 || k < wantMin {
				wantMin = k
			}
			if k > wantMax {
				wantMax = k
			}
		}
		if b.min() != wantMin || b.max() != wantMax {
			t.Fatalf("step %d: min/max = %d/%d, want %d/%d", step, b.min(), b.max(), wantMin, wantMax)
		}
	}
}

func TestFloatOrdMonotone(t *testing.T) {
	// A sorted gauntlet across the float range, ±Inf included: the
	// transform must be strictly monotone and the bucket quantisation
	// weakly monotone, or bucket boundaries could reorder two keys.
	vals := []float64{math.Inf(-1), -1e308, -12345.678, -1, -1e-300, math.Copysign(0, -1),
		0, 1e-300, 0.5, 1, 12345.678, 1e308, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		a, b := vals[i-1], vals[i]
		if a == b { // ±0 compare equal; their buckets need not order
			continue
		}
		if floatOrd(a) >= floatOrd(b) {
			t.Errorf("floatOrd not monotone at %g < %g: %#x >= %#x", a, b, floatOrd(a), floatOrd(b))
		}
		if bucketOf(a) > bucketOf(b) {
			t.Errorf("bucketOf not monotone at %g < %g: %d > %d", a, b, bucketOf(a), bucketOf(b))
		}
	}
	for _, v := range vals {
		if bkt := bucketOf(v); bkt < 0 || bkt >= sbBuckets {
			t.Errorf("bucketOf(%g) = %d, outside [0,%d)", v, bkt, sbBuckets)
		}
	}
}

// TestScoreboardOrderAgainstReference drives random insert/remove
// cycles — with heavy key ties to stress the in-bucket chains — against
// a sorted-slice reference, checking min, max and membership after
// every mutation.
func TestScoreboardOrderAgainstReference(t *testing.T) {
	sb := newScoreboard()
	rng := rand.New(rand.NewSource(7))
	type ent struct{ key sbKey }
	ref := map[int]ent{}
	nextID := 1
	calls := map[int]*call{}
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(3) > 0 {
			// Quantised keys force bucket and full-key collisions.
			k1 := float64(rng.Intn(8)) * 0.5
			if rng.Intn(16) == 0 {
				k1 = math.Inf(1)
			}
			k2 := float64(rng.Intn(4))
			id := nextID
			nextID++
			c := &call{}
			c.req.ID = id
			calls[id] = c
			sb.insert(id, k1, k2, c)
			ref[id] = ent{key: sbKey{k1: k1, k2: k2, id: id}}
		} else {
			ids := make([]int, 0, len(ref))
			for id := range ref {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			id := ids[rng.Intn(len(ids))]
			if !sb.remove(id) {
				t.Fatalf("step %d: remove(%d) reported absent", step, id)
			}
			if sb.remove(id) {
				t.Fatalf("step %d: double remove(%d) reported present", step, id)
			}
			delete(ref, id)
		}
		if sb.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, sb.len(), len(ref))
		}
		var wantMin, wantMax sbKey
		first := true
		for _, e := range ref {
			if first || e.key.less(wantMin) {
				wantMin = e.key
			}
			if first || wantMax.less(e.key) {
				wantMax = e.key
			}
			first = false
		}
		gotMin, okMin := sb.min()
		gotMax, okMax := sb.max()
		if okMin != !first || okMax != !first {
			t.Fatalf("step %d: min/max presence %v/%v, want %v", step, okMin, okMax, !first)
		}
		if okMin && (gotMin.key != wantMin || gotMin.c != calls[wantMin.id]) {
			t.Fatalf("step %d: min %+v, want %+v", step, gotMin.key, wantMin)
		}
		if okMax && gotMax.key != wantMax {
			t.Fatalf("step %d: max %+v, want %+v", step, gotMax.key, wantMax)
		}
	}
}

// --- satellite regressions -------------------------------------------

// overshootPolicy returns an index past the eligible view: the kind
// of out-of-contract third-party policy the closed policy set keeps out
// of the scheduler.
type overshootPolicy struct{}

func (overshootPolicy) Name() string { return "overshoot" }
func (overshootPolicy) Next(now float64, eligible []Pending) int {
	return len(eligible) + 3
}
func (overshootPolicy) Victim(now float64, blocked Pending, running []Running) int { return -1 }

// TestNewRejectsNonBuiltinPolicy pins the closed policy set: New
// refuses any Policy the scoreboard core does not implement, naming its
// type, instead of scheduling it on some other path.
func TestNewRejectsNonBuiltinPolicy(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	for _, tc := range []struct {
		p    Policy
		want string
	}{
		{overshootPolicy{}, "serve.overshootPolicy"},
		{&SLOPolicy{}, "*serve.SLOPolicy"},
	} {
		s, err := New(Config{Engine: eng, Policy: tc.p})
		if err == nil {
			t.Errorf("New(%T) = %v, want an error", tc.p, s)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%T) error %q does not name the type %s", tc.p, err, tc.want)
		}
	}
}

// TestPriorityOutOfOrderArrivalTieBreak pins PriorityPolicy.Next's
// semantics on the inputs the old code got wrong: the pick must not
// depend on the order the caller built the eligible slice in (ties at
// equal rank and equal arrival fall to the submission id, not the
// index), and a future-stamped arrival — negative age, which an
// out-of-order trace can produce — must rank as un-aged batch without
// poisoning the comparison.
func TestPriorityOutOfOrderArrivalTieBreak(t *testing.T) {
	const now = 10.0
	p := PriorityPolicy{AgingSeconds: 5}
	eligible := []Pending{
		{ID: 7, Arrival: 9.5, Class: ClassInteractive},
		{ID: 3, Arrival: 9.5, Class: ClassInteractive}, // same rank, same arrival: id wins
		{ID: 1, Arrival: 11, Class: ClassBatch},        // future-stamped: negative age, stays batch rank
		{ID: 2, Arrival: 4, Class: ClassBatch},         // aged past 5s: interactive rank, earliest arrival
	}
	perm := []int{0, 1, 2, 3}
	for trial := 0; trial < 24; trial++ {
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(perm), func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		view := make([]Pending, len(eligible))
		for i, j := range perm {
			view[i] = eligible[j]
		}
		if got := view[p.Next(now, view)].ID; got != 2 {
			t.Fatalf("perm %v: picked id %d, want 2 (aged batch at earliest arrival)", perm, got)
		}
		// Remove the aged request: the interactive pair ties on
		// (rank, arrival) and must resolve to the lower id from any
		// slice order.
		rest := make([]Pending, 0, 3)
		for _, q := range view {
			if q.ID != 2 {
				rest = append(rest, q)
			}
		}
		if got := rest[p.Next(now, rest)].ID; got != 3 {
			t.Fatalf("perm %v: tie pick id %d, want 3 (lowest id at equal rank+arrival)", perm, got)
		}
	}
	// Exactly at the aging boundary the promotion must fire (age >=
	// aging), matching the scoreboard calendar's agedToInteractive.
	boundary := []Pending{
		{ID: 5, Arrival: now - 5, Class: ClassBatch},
		{ID: 4, Arrival: now - 1, Class: ClassInteractive},
	}
	if got := boundary[p.Next(now, boundary)].ID; got != 5 {
		t.Fatalf("boundary pick id %d, want 5 (aged exactly AgingSeconds)", got)
	}
}

// TestSLOVictimDeterministicIDTie pins the final victim tie-break: two
// running sequences admitted in the same window carry identical
// (deadline, admitted), and the pick must fall to the lowest id from
// any slice order — the choice the historical scan made implicitly —
// so linear and scoreboard paths agree.
func TestSLOVictimDeterministicIDTie(t *testing.T) {
	p := SLOPolicy{}
	blocked := Pending{ID: 99, Deadline: 5}
	running := []Running{
		{ID: 11, Deadline: 20, Admitted: 1},
		{ID: 4, Deadline: 20, Admitted: 1},
		{ID: 8, Deadline: 20, Admitted: 1},
		{ID: 2, Deadline: 4, Admitted: 1}, // protected: deadline before blocked's
	}
	perm := []int{0, 1, 2, 3}
	for trial := 0; trial < 24; trial++ {
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(perm), func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		view := make([]Running, len(running))
		for i, j := range perm {
			view[i] = running[j]
		}
		v := p.Victim(0, blocked, view)
		if v < 0 {
			t.Fatalf("perm %v: declined, want a victim", perm)
		}
		if got := view[v].ID; got != 4 {
			t.Fatalf("perm %v: victim id %d, want 4 (lowest id at full tie)", perm, got)
		}
	}
	if v := p.Victim(0, Pending{Deadline: math.Inf(1)}, running); v >= 0 {
		t.Errorf("deadline-free blocked request got victim %d, want decline", v)
	}
}

// --- linear vs scoreboard equivalence --------------------------------

// fuzzCall builds the minimal call a schedCore needs.
func fuzzCall(id int, arrival float64, class Class, ttft float64) *call {
	c := &call{class: class, ttftSLO: ttft}
	c.req.ID = id
	c.req.ArrivalSeconds = arrival
	return c
}

// FuzzPolicyEquivalence drains randomized pending sets through the
// linear reference queue and the scoreboard core with identical
// admissionQueue calls, then does the same for victim selection over a
// randomized running batch, asserting identical choices at every step.
// Keys are quantised to a coarse grid so full-key ties — where the two
// implementations are most likely to diverge — occur constantly.
func FuzzPolicyEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(1))
	f.Add(uint64(3), uint8(40), uint8(2))
	f.Add(uint64(99), uint8(64), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, kind uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		var p Policy
		switch kind % 3 {
		case 0:
			p = FIFOPolicy{}
		case 1:
			p = PriorityPolicy{AgingSeconds: 4}
		case 2:
			p = SLOPolicy{}
		}
		sc, err := newSchedCore(p)
		if err != nil {
			t.Fatal(err)
		}
		lin := newLinearQueue(p)
		now := 8.0
		count := int(n%64) + 1
		calls := make([]*call, 0, count)
		for i := 0; i < count; i++ {
			arrival := float64(rng.Intn(12)) // 0..11: some stamped past now
			class := ClassInteractive
			if rng.Intn(2) == 0 {
				class = ClassBatch
			}
			ttft := 0.0
			if rng.Intn(2) == 0 {
				ttft = float64(rng.Intn(4)) + 0.5
			}
			c := fuzzCall(i+1, arrival, class, ttft)
			calls = append(calls, c)
			lin.add(c)
			sc.add(c)
		}

		// Admission drain: both queues promote to now, and each step
		// admits the reference's pick from both.
		for {
			lin.promote(now)
			sc.promote(now)
			want, wok := lin.peek()
			got, gok := sc.peek()
			if wok != gok {
				t.Fatalf("policy %s: linear has eligible %v, scoreboard %v", p.Name(), wok, gok)
			}
			if !wok {
				break
			}
			if got.req.ID != want.req.ID {
				t.Fatalf("policy %s: linear admits %d, scoreboard admits %d", p.Name(), want.req.ID, got.req.ID)
			}
			lin.removeEligible(want.req.ID)
			sc.removeEligible(want.req.ID)
		}
		if lin.len() != sc.len() || lin.nextArrival() != sc.nextArrival() {
			t.Fatalf("policy %s: future queue linear %d/%g, scoreboard %d/%g",
				p.Name(), lin.len(), lin.nextArrival(), sc.len(), sc.nextArrival())
		}

		// Victim drain (SLO only): the same calls as a running batch,
		// admitted in quantised same-window groups to force full ties.
		if _, isSLO := p.(SLOPolicy); !isSLO {
			return
		}
		for _, c := range calls {
			c.admittedAt = float64(rng.Intn(3))
			lin.runningAdd(c)
			sc.runningAdd(c)
		}
		blocked := math.Inf(1)
		if rng.Intn(4) > 0 {
			blocked = float64(rng.Intn(10))
		}
		for {
			want, wok := lin.victim(blocked)
			got, gok := sc.victim(blocked)
			if wok != gok || got != want {
				t.Fatalf("linear victim %d (%v), scoreboard victim %d (%v)", want, wok, got, gok)
			}
			if !wok {
				break
			}
			lin.runningRemove(want)
			sc.runningRemove(want)
		}
	})
}

// replayLinear is replay with the linear reference queue installed in
// place of the scoreboard core.
func replayLinear(t *testing.T, cfg Config, reqs []Request) []Result {
	t.Helper()
	s := newServer(t, cfg)
	s.q = newLinearQueue(cfg.Policy)
	return replayOn(t, s, reqs)
}

// TestScoreboardReplayMatchesLinear is the whole-server differential:
// for every built-in policy, an identical trace replayed through the
// scoreboard core and through the linear reference queue must produce
// byte-identical schedules — admission, first-token and finish stamps,
// and preemption counts.
func TestScoreboardReplayMatchesLinear(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	reqs := mixedTrace(48)
	for _, p := range []Policy{FIFOPolicy{}, PriorityPolicy{}, SLOPolicy{}} {
		cfg := Config{Engine: eng, QueueDepth: len(reqs), MaxBatch: 8}
		cfg.Policy = p
		sb := replay(t, cfg, reqs)
		lin := replayLinear(t, cfg, reqs)
		for i := range sb {
			if sb[i].Admitted != lin[i].Admitted || sb[i].FirstToken != lin[i].FirstToken ||
				sb[i].Finished != lin[i].Finished || sb[i].Preempted != lin[i].Preempted {
				t.Fatalf("policy %s request %d: scoreboard %+v vs linear %+v", p.Name(), i, sb[i], lin[i])
			}
		}
	}
}

// TestScoreboardPreemptionMatchesLinear runs the preemption-heavy SLO
// scenario (capacity-pinning hogs vs an urgent deadline, chunked
// prefill) through both queues: victim choices — and hence the whole
// schedule — must match exactly.
func TestScoreboardPreemptionMatchesLinear(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	plan := eng.Plan()
	hogTokens := (plan.Blocks - 4) / 2 * 16
	reqs := []Request{
		{PromptLen: hogTokens / 2, OutputLen: hogTokens - hogTokens/2, Arrival: 0, Class: ClassBatch},
		{PromptLen: hogTokens / 2, OutputLen: hogTokens - hogTokens/2, Arrival: 0, Class: ClassBatch},
		{PromptLen: 256, OutputLen: 64, Arrival: 0.001, Class: ClassInteractive, TTFTDeadline: 1},
	}
	cfg := Config{Engine: eng, QueueDepth: 8, PrefillChunkTokens: 128}
	cfg.Policy = SLOPolicy{}
	sb := replay(t, cfg, reqs)
	lin := replayLinear(t, cfg, reqs)
	preempts := 0
	for i := range sb {
		if sb[i].Admitted != lin[i].Admitted || sb[i].Finished != lin[i].Finished ||
			sb[i].Preempted != lin[i].Preempted {
			t.Fatalf("request %d: scoreboard %+v vs linear %+v", i, sb[i], lin[i])
		}
		preempts += sb[i].Preempted
	}
	if preempts == 0 {
		t.Fatal("no preemption occurred: the differential is vacuous")
	}
}

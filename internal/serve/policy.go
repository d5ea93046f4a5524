package serve

import (
	"fmt"
	"math"
)

// Pending is the read-only view of one queued request a Policy orders.
type Pending struct {
	ID        int
	PromptLen int
	OutputLen int
	Arrival   float64 // virtual arrival time
	Class     Class
	Deadline  float64 // absolute first-token deadline; +Inf without an SLO
}

// Running is the read-only view of one in-flight sequence, the victim
// candidates a preempting Policy chooses from. The slice handed to
// Victim is sorted by submission ID (ascending), a deterministic
// order; Admitted carries each sequence's last admission time for
// policies that rank victims by it (admission order can diverge from
// ID order under a reordering policy).
type Running struct {
	ID        int
	PromptLen int
	OutputLen int
	Arrival   float64
	Admitted  float64
	Class     Class
	Deadline  float64
}

// Policy decides admission order for the scheduler loop and picks
// preemption victims. The set is closed: the server accepts only the
// built-ins PolicyByName returns (FIFOPolicy, PriorityPolicy,
// SLOPolicy), and New rejects any other implementation with an error
// naming its type.
//
// The server runs each built-in's ordering on the incremental
// bitmap-scoreboard core (scoreboard.go, docs/scheduling.md), whose
// per-slot decisions are O(1) in queue depth; it never calls Next or
// Victim. Those slice methods are the reference semantics the core
// reproduces exactly, checked by the linear-scan differential tests.
// Next sees every request that has arrived on the virtual clock (in
// queue order); the chosen request is admitted if its conservative KV
// reservation fits. When it does not fit, Victim may name an in-flight
// sequence to preempt and requeue — the engine.Stepper returns every
// block the victim held, so the urgent admission proceeds; the victim
// restarts from scratch later.
type Policy interface {
	// Name identifies the policy ("fifo", "priority", "slo") in flags,
	// stats and logs.
	Name() string
	// Next returns the index into eligible (non-empty) of the request
	// to admit next.
	Next(now float64, eligible []Pending) int
	// Victim returns the index into running of the sequence to preempt
	// so blocked can be admitted, or a negative value to wait for
	// capacity instead. It is called repeatedly until blocked fits or
	// it declines, with the already-preempted sequences removed.
	Victim(now float64, blocked Pending, running []Running) int
}

// PolicyNames lists the built-in policies in flag order.
func PolicyNames() []string { return []string{"fifo", "priority", "slo"} }

// PolicyByName returns a fresh built-in policy with its defaults:
// "fifo", "priority" or "slo".
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "fifo", "":
		return FIFOPolicy{}, nil
	case "priority":
		return PriorityPolicy{}, nil
	case "slo":
		return SLOPolicy{}, nil
	default:
		return nil, fmt.Errorf("serve: unknown policy %q (have %v)", name, PolicyNames())
	}
}

// FIFOPolicy admits in submission order with head-of-line blocking and
// never preempts — the default, and the legacy single-policy
// behaviour. One refinement over the legacy loop: ordering applies
// among requests that have arrived on the virtual clock, so a trace
// replayed with out-of-order arrival stamps no longer blocks an
// arrived request behind a future-stamped head of line (in-order
// traces schedule identically, enforced by test).
type FIFOPolicy struct{}

// Name implements Policy.
func (FIFOPolicy) Name() string { return "fifo" }

// Next always picks the head of the queue.
func (FIFOPolicy) Next(now float64, eligible []Pending) int { return 0 }

// Victim never preempts.
func (FIFOPolicy) Victim(now float64, blocked Pending, running []Running) int { return -1 }

// DefaultAgingSeconds is PriorityPolicy's default promotion age: a
// batch request waiting this many virtual seconds competes at
// interactive rank, where its older arrival wins FIFO ties.
const DefaultAgingSeconds = 5

// agedToInteractive is the one promotion predicate both scheduling
// paths share: a batch request that arrived at arrival has aged to
// interactive rank once it has waited at least aging virtual seconds.
// PriorityPolicy.Next and the scoreboard core's aging calendar
// (schedCore.promote) must use this exact float comparison — a
// re-derived form like arrival <= now-aging rounds differently and
// could promote on different iterations. Phrased as age >= aging
// (rather than the historical age < aging on the un-promoted side) so
// a NaN-stamped arrival can never spuriously promote to interactive
// rank: garbage stays at batch rank, it does not jump the queue.
func agedToInteractive(now, arrival, aging float64) bool {
	return now-arrival >= aging
}

// PriorityPolicy admits interactive-class requests before batch-class
// ones, FIFO within a class. Aging makes it starvation-free: a batch
// request that has waited AgingSeconds is promoted to interactive
// rank, and since every tie at equal rank breaks toward the earlier
// arrival, the aged request beats all interactive traffic that arrived
// after it — so sustained interactive load can delay a batch request
// by at most the aging window plus one admission cycle. It never
// preempts.
type PriorityPolicy struct {
	// AgingSeconds promotes a batch request to interactive rank after
	// this long in the queue. Zero (or negative) = DefaultAgingSeconds.
	AgingSeconds float64
}

// Name implements Policy.
func (PriorityPolicy) Name() string { return "priority" }

// Next picks the lowest (rank, arrival, id) among eligible. The final
// tie-break is the submission id, not the slice index: two requests at
// equal rank with identical arrival stamps (an out-of-order trace can
// produce them) resolve the same way regardless of how the caller
// ordered the view, which is what lets the scoreboard path — which
// never sees slice indices — reproduce this policy's choices exactly.
func (p PriorityPolicy) Next(now float64, eligible []Pending) int {
	aging := p.AgingSeconds
	if aging <= 0 {
		aging = DefaultAgingSeconds
	}
	rank := func(q Pending) int {
		if q.Class == ClassBatch && !agedToInteractive(now, q.Arrival, aging) {
			return 1
		}
		return 0
	}
	best := 0
	for i := 1; i < len(eligible); i++ {
		ri, rb := rank(eligible[i]), rank(eligible[best])
		if ri < rb || (ri == rb && (eligible[i].Arrival < eligible[best].Arrival ||
			(eligible[i].Arrival == eligible[best].Arrival && eligible[i].ID < eligible[best].ID))) {
			best = i
		}
	}
	return best
}

// Victim never preempts.
func (PriorityPolicy) Victim(now float64, blocked Pending, running []Running) int { return -1 }

// SLOPolicy is earliest-TTFT-deadline-first admission. Requests
// without a deadline sort last (FIFO among themselves). When the
// earliest-deadline request cannot fit, the policy preempts the
// in-flight sequence with the latest deadline — provided that deadline
// is strictly later than the blocked request's, so a preempted
// sequence can never bounce the request that displaced it, and the
// preemption chain is bounded by the running batch. Requests without a
// deadline never trigger a preemption.
type SLOPolicy struct{}

// Name implements Policy.
func (SLOPolicy) Name() string { return "slo" }

// Next picks the earliest (deadline, arrival, id) among eligible. As
// with PriorityPolicy, the final tie-break is the submission id rather
// than the slice index, so a preempt-and-requeue cycle — which reorders
// the pending queue a caller builds its view from — cannot flip a tied
// decision, and the scoreboard path reproduces it exactly.
func (SLOPolicy) Next(now float64, eligible []Pending) int {
	best := 0
	for i := 1; i < len(eligible); i++ {
		di, db := eligible[i].Deadline, eligible[best].Deadline
		if di < db || (di == db && (eligible[i].Arrival < eligible[best].Arrival ||
			(eligible[i].Arrival == eligible[best].Arrival && eligible[i].ID < eligible[best].ID))) {
			best = i
		}
	}
	return best
}

// Victim picks the running sequence with the latest deadline, breaking
// ties toward the most recent admission (least work lost), and only
// when that deadline is strictly later than the blocked request's. Two
// sequences admitted in the same admission window carry the identical
// virtual Admitted time, so a full (deadline, admitted) tie is
// reachable; it resolves explicitly toward the lowest submission id —
// the slice-order choice the historical scan made implicitly over its
// ID-sorted view, now pinned so it cannot depend on how the caller
// built the slice. Deterministic across the linear and scoreboard
// implementations, enforced by FuzzPolicyEquivalence.
func (SLOPolicy) Victim(now float64, blocked Pending, running []Running) int {
	if math.IsInf(blocked.Deadline, 1) {
		return -1 // no SLO at stake: wait for capacity
	}
	best := -1
	for i, q := range running {
		if q.Deadline <= blocked.Deadline {
			continue
		}
		if best < 0 || q.Deadline > running[best].Deadline ||
			(q.Deadline == running[best].Deadline && (q.Admitted > running[best].Admitted ||
				(q.Admitted == running[best].Admitted && q.ID < running[best].ID))) {
			best = i
		}
	}
	return best
}

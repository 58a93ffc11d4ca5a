// Package pdes runs several sim.Engine instances as synchronization domains
// advancing in conservative windows, with a deterministic barrier merge.
//
// # Model
//
// A Cluster owns a fixed set of Domains. Each Domain wraps one ordinary
// single-threaded sim.Engine plus per-destination outboxes; the engines, and
// every model component scheduled on them, stay pure and single-threaded.
// The executor is serial: the coordinator runs the domains of each window
// itself, in domain order.
//
// Execution proceeds in windows. At each barrier the coordinator computes
// the globally earliest pending event time t (Engine.NextAt across domains)
// and opens the window [t, t+lookahead): every domain may execute its own
// events in that span with no knowledge of the others, because a message
// sent at time s carries a delivery time >= s + lookahead, which lies at or
// beyond the window's end. This is the classical conservative
// (bounded-lag/BTB) synchronization argument; the lookahead comes from the
// interconnect — no cross-domain interaction is faster than the cheapest
// link (propagation plus at least one serialization cycle).
//
// # Event order
//
// The windows and the barrier merge define the order of same-cycle events,
// and with it the results; a single shared engine would interleave them
// differently (see DESIGN.md "Synchronization domains"):
//
//   - Within a window a domain touches only its own engine and state.
//   - Cross-domain sends go through Post, which stages each message in the
//     sender's per-destination outbox; nothing reaches another domain
//     mid-window.
//   - At the barrier the coordinator injects, for each destination, every
//     source's outbox in domain order, each in post order. An engine fires
//     events in (time, schedule sequence) order, so the messages due in one
//     cycle fire ordered by (source domain, post order): the order a sort
//     by (deliverAt, source, sequence) would give, without the sort.
//
// Post panics if a message's delivery time lands inside the current window:
// such a message could not have been exchanged at the previous barrier, so
// the conservative premise would be broken. Domain layouts with genuinely
// zero-lookahead interactions must place the interacting components in one
// domain; a single-domain cluster degenerates to the plain serial engine
// with no barriers at all.
package pdes

import (
	"context"
	"fmt"

	"idyll/internal/sim"
)

// DomainID names a synchronization domain within its cluster.
type DomainID int

// message is one staged cross-domain event: fn runs on the destination's
// engine at time at.
type message struct {
	at sim.VTime
	fn func()
}

// Domain is one synchronization domain: a single-threaded engine plus
// outboxes for cross-domain sends. All of a domain's model state must be
// touched only by closures executing on its engine.
type Domain struct {
	id  DomainID
	cl  *Cluster
	eng *sim.Engine
	// out stages messages per destination domain until the next barrier.
	// Only this domain appends (during its own window); only the
	// coordinator drains (between windows).
	out [][]message
}

// ID reports the domain's identity.
func (d *Domain) ID() DomainID { return d.id }

// Cluster reports the cluster the domain belongs to.
func (d *Domain) Cluster() *Cluster { return d.cl }

// Engine exposes the domain's event engine for local scheduling.
func (d *Domain) Engine() *sim.Engine { return d.eng }

// Now reports the domain's local clock.
func (d *Domain) Now() sim.VTime { return d.eng.Now() }

// Schedule runs fn on this domain's engine delay cycles from its local now.
func (d *Domain) Schedule(delay sim.VTime, fn func()) {
	d.eng.Schedule(delay, fn)
}

// ScheduleAt runs fn on this domain's engine at absolute local time t.
func (d *Domain) ScheduleAt(t sim.VTime, fn func()) {
	d.eng.ScheduleAt(t, fn)
}

// Post schedules fn to run at absolute time at on domain dst. The delivery
// time must not land inside the current window (see the package comment);
// violating that panics, because it would break the window's independence.
// In a single-domain cluster Post degenerates to ScheduleAt.
func (d *Domain) Post(dst DomainID, at sim.VTime, fn func()) {
	c := d.cl
	if fn == nil {
		panic("pdes: nil message function")
	}
	if len(c.domains) == 1 {
		if dst != d.id {
			panic(fmt.Sprintf("pdes: post to domain %d of a single-domain cluster", dst))
		}
		d.eng.ScheduleAt(at, fn)
		return
	}
	if dst == d.id {
		// Same-domain traffic needs no mailbox and must not wait for a
		// barrier (it may be due before the window ends).
		d.eng.ScheduleAt(at, fn)
		return
	}
	if c.running && at < c.windowEnd {
		panic(fmt.Sprintf(
			"pdes: message from domain %d to %d delivers at %d inside the current window ending %d; "+
				"cross-domain latency below the cluster lookahead %d breaks conservative synchronization",
			d.id, dst, at, c.windowEnd, c.lookahead))
	}
	d.out[dst] = append(d.out[dst], message{at: at, fn: fn})
}

// ClusterStats counts the synchronization work a run performed.
type ClusterStats struct {
	// Windows is how many barrier-to-barrier windows executed.
	Windows uint64
	// Messages is how many cross-domain messages were exchanged.
	Messages uint64
	// MaxBatch is the largest single-destination injection batch.
	MaxBatch int
}

// Cluster is a fixed set of domains advancing in conservative lockstep.
// Build with NewCluster, wire the model onto the domains, then Run once.
type Cluster struct {
	lookahead sim.VTime
	domains   []*Domain
	// windowEnd is the exclusive end of the window being executed. Written
	// by the coordinator between windows; read by Post during the window.
	windowEnd sim.VTime
	running   bool
	st        ClusterStats
}

// NewCluster builds n domains with the given lookahead (cycles). With more
// than one domain the lookahead must be positive: zero lookahead means
// domains may interact within the same cycle, which conservative windows
// cannot express — merge such components into one domain instead.
func NewCluster(n int, lookahead sim.VTime) *Cluster {
	if n < 1 {
		panic("pdes: cluster needs at least one domain")
	}
	if n > 1 && lookahead < 1 {
		panic(fmt.Sprintf("pdes: lookahead %d with %d domains; conservative windows need lookahead >= 1", lookahead, n))
	}
	c := &Cluster{lookahead: lookahead}
	c.domains = make([]*Domain, n)
	for i := range c.domains {
		c.domains[i] = &Domain{
			id:  DomainID(i),
			cl:  c,
			eng: sim.NewEngine(),
			out: make([][]message, n),
		}
	}
	return c
}

// NumDomains reports the cluster's domain count.
func (c *Cluster) NumDomains() int { return len(c.domains) }

// Lookahead reports the cluster's synchronization lookahead.
func (c *Cluster) Lookahead() sim.VTime { return c.lookahead }

// Domain returns domain i.
func (c *Cluster) Domain(i int) *Domain { return c.domains[i] }

// Pending reports scheduled-but-unexecuted events across all domains,
// including messages still staged in outboxes.
func (c *Cluster) Pending() int {
	n := 0
	for _, d := range c.domains {
		n += d.eng.Pending()
		for _, out := range d.out {
			n += len(out)
		}
	}
	return n
}

// Stats returns a snapshot of the cluster's synchronization counters.
func (c *Cluster) Stats() ClusterStats { return c.st }

// EngineStats sums the engine-internal counters across all domains.
func (c *Cluster) EngineStats() sim.EngineStats {
	var t sim.EngineStats
	for _, d := range c.domains {
		es := d.eng.Stats()
		t.Fired += es.Fired
		t.RingScheduled += es.RingScheduled
		t.FarScheduled += es.FarScheduled
		t.Migrated += es.Migrated
		t.Recycled += es.Recycled
		t.PoolHits += es.PoolHits
	}
	return t
}

// Run executes every domain to completion.
func (c *Cluster) Run() {
	if err := c.RunCtx(context.Background()); err != nil {
		panic("pdes: background context cancelled: " + err.Error())
	}
}

// serialBatchEvents is how many events the single-domain fast path fires
// between cancellation checks (mirrors the pre-PDES system loop).
const serialBatchEvents = 8192

// RunCtx is Run with cooperative cancellation: execution stops at the next
// barrier (or batch boundary, single-domain) once ctx is done, returning
// ctx.Err(). Cancellation cannot perturb results — a run either completes
// with output identical to an uncancelled run's, or returns an error.
func (c *Cluster) RunCtx(ctx context.Context) error {
	if c.running {
		panic("pdes: re-entrant cluster run")
	}
	c.running = true
	defer func() { c.running = false }()
	if ctx == nil {
		ctx = context.Background()
	}
	if len(c.domains) == 1 {
		eng := c.domains[0].eng
		for eng.RunBatch(serialBatchEvents) {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	// Messages posted during model setup (before any window) are staged in
	// outboxes; inject them now so they participate in window placement.
	c.exchange()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		next, ok := c.nextEventTime()
		if !ok {
			return nil
		}
		// The window start jumps straight to the earliest pending event, so
		// idle stretches cost one barrier regardless of their length.
		end := next + c.lookahead
		c.windowEnd = end
		c.st.Windows++
		for _, d := range c.domains {
			d.eng.RunUntil(end - 1)
		}
		c.exchange()
	}
}

// nextEventTime reports the earliest pending event time across all domains.
// Outboxes are always empty here (exchange drains them every barrier).
func (c *Cluster) nextEventTime() (sim.VTime, bool) {
	var min sim.VTime
	found := false
	for _, d := range c.domains {
		if t, ok := d.eng.NextAt(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// exchange drains every outbox into its destination's engine. For each
// destination it injects every source's outbox in domain order, each in
// post order. Buckets of the engine's ring are per-cycle FIFOs and its far
// heap orders by (time, schedule sequence), so the messages of one exchange
// that are due in the same cycle fire in (source, post order), after every
// event already scheduled for that cycle. Iteration order over domains is
// fixed, so each engine's internal event numbering is a pure function of
// the messages.
func (c *Cluster) exchange() {
	for dstID, dst := range c.domains {
		batch := 0
		for _, src := range c.domains {
			out := src.out[dstID]
			for i := range out {
				dst.eng.ScheduleAt(out[i].at, out[i].fn)
				out[i].fn = nil
			}
			batch += len(out)
			src.out[dstID] = out[:0]
		}
		c.st.Messages += uint64(batch)
		if batch > c.st.MaxBatch {
			c.st.MaxBatch = batch
		}
	}
}

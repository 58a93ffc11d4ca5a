// Package lockorder is the golden input for the lockorder check: mutex
// nesting must form a DAG, including nesting hidden behind same-package
// calls made while holding a lock.
package lockorder

import "sync"

// Alpha and Beta are locked in opposite orders by One and Two: the direct
// cycle, reported once from the rotation starting at the smallest key.
type Alpha struct {
	mu sync.Mutex
	b  *Beta
}

type Beta struct {
	mu sync.Mutex
	a  *Alpha
}

func (x *Alpha) One() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.b.mu.Lock() // want `mutex acquisition-order cycle: Alpha\.mu → Beta\.mu → Alpha\.mu`
	x.b.mu.Unlock()
}

func (y *Beta) Two() {
	y.mu.Lock()
	defer y.mu.Unlock()
	y.a.mu.Lock()
	y.a.mu.Unlock()
}

// Gamma reaches Delta.mu through a same-package call while holding its own
// lock — the half of the cycle only the call summaries can see.
type Gamma struct {
	mu sync.Mutex
	d  *Delta
}

type Delta struct {
	mu sync.Mutex
	g  *Gamma
}

func (g *Gamma) LockBoth() {
	g.mu.Lock()
	g.lockD()
	g.mu.Unlock()
}

func (g *Gamma) lockD() {
	g.d.mu.Lock()
	g.d.mu.Unlock()
}

func (d *Delta) Back() {
	d.mu.Lock()
	d.g.mu.Lock() // want `mutex acquisition-order cycle: Delta\.mu → Gamma\.mu → Delta\.mu`
	d.g.mu.Unlock()
	d.mu.Unlock()
}

// Outer and Inner are always locked in the same global order: no finding.
type Outer struct {
	mu sync.Mutex
	in *Inner
}

type Inner struct{ mu sync.Mutex }

func (o *Outer) A() {
	o.mu.Lock()
	o.in.mu.Lock()
	o.in.mu.Unlock()
	o.mu.Unlock()
}

func (o *Outer) B() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.in.mu.Lock()
	defer o.in.mu.Unlock()
}

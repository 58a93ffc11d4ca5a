package sim

// Recycler is a free list of the storage of finished machines, for the next
// machine built from it to reuse: event engines, and whatever storage other
// components file with it. A component files its storage under a
// RecycleKey that names the component and the geometry the storage fits, so
// a value comes back only to a request for the same key, emptied by the
// component to the state a new one starts in.
//
// A Recycler is not safe for concurrent use, and the simulator core never
// shares one: a goroutine that builds machines one after another owns one,
// as each worker of the experiment runner does. The zero value is empty and
// ready to use. A nil *Recycler is valid too: it never has anything to hand
// out, and storage put into it is left to the garbage collector.
type Recycler struct {
	free map[RecycleKey][]any
}

// RecycleKey names what a component files with a Recycler. It is a plain
// comparable struct, not an interface, so filing and taking allocate
// nothing.
type RecycleKey struct {
	// Kind names the component, by its package and type ("tlb.TLB").
	Kind string
	// Dims are the sizes that fix the storage's geometry, zero where the
	// storage fits every machine.
	Dims [5]int
}

// Take removes and returns a value filed under key, if there is one.
func (r *Recycler) Take(key RecycleKey) (any, bool) {
	if r == nil {
		return nil, false
	}
	vs := r.free[key]
	if len(vs) == 0 {
		return nil, false
	}
	v := vs[len(vs)-1]
	vs[len(vs)-1] = nil
	r.free[key] = vs[:len(vs)-1]
	return v, true
}

// Put files v under key for a later Take. The caller has emptied v and
// must not touch it afterwards.
func (r *Recycler) Put(key RecycleKey, v any) {
	if r == nil {
		return
	}
	if r.free == nil {
		r.free = make(map[RecycleKey][]any)
	}
	r.free[key] = append(r.free[key], v)
}

// engineKey files released engines: every engine fits every machine.
var engineKey = RecycleKey{Kind: "sim.Engine"}

// NewEngineFrom is NewEngine reusing an engine released into r, if it holds
// one. Only the capacity of a reused engine's slab, free list and far heap
// can differ from a new one's, and nothing the engine does depends on
// capacity.
func NewEngineFrom(r *Recycler) *Engine {
	if v, ok := r.Take(engineKey); ok {
		return v.(*Engine)
	}
	return NewEngine()
}

// Release empties e and files it with r for NewEngineFrom to reuse. The
// caller must not touch e afterwards. An engine with pending events (a
// cancelled run) or in the middle of a run is left to the garbage collector
// instead: its queue still holds closures of the run that scheduled them.
func (e *Engine) Release(r *Recycler) {
	if e.Pending() != 0 || e.running {
		return
	}
	// Every node of a quiescent slab has fired or was restored blank, so
	// none holds a closure; truncating keeps the arrays for reuse.
	*e = Engine{slab: e.slab[:0], free: e.free[:0], far: e.far[:0]}
	r.Put(engineKey, e)
}

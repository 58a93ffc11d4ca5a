// Golden input for the straygoroutine check: positive and negative cases.
// Importing sync is not this check's finding: the root
// TestCoreImportsStayDeterministic bans that import in the core.
package straygoroutine

import (
	"sync"
)

// Positive: goroutines and channels make event interleaving depend on the
// Go scheduler.
func positive(mu *sync.Mutex) int {
	ch := make(chan int, 1) // want `channel type in the deterministic core`
	go func() {             // want `go statement in the deterministic core`
		ch <- 1 // want `channel send in the deterministic core`
	}()
	return <-ch // want `channel receive in the deterministic core`
}

func selects(a chan int) { // want `channel type in the deterministic core`
	select { // want `select in the deterministic core`
	case <-a: // want `channel receive in the deterministic core`
	default:
	}
}

// Negative: single-threaded callback scheduling is the core's concurrency
// model.
type engine struct{ queue []func() }

func (e *engine) schedule(fn func()) { e.queue = append(e.queue, fn) }

func (e *engine) run() {
	for len(e.queue) > 0 {
		fn := e.queue[0]
		e.queue = e.queue[1:]
		fn()
	}
}

package service

import (
	"sync"
	"testing"
)

// checkTerminalStream fails unless events are the complete, gap-free history
// of a job ending with its terminal event.
func checkTerminalStream(t *testing.T, iter int, events []Event, terminal string) {
	t.Helper()
	if n := len(events); n == 0 || events[n-1].Type != terminal {
		t.Errorf("iteration %d: stream %+v does not end with %q", iter, events, terminal)
		return
	}
	for k, ev := range events {
		if ev.Seq != k {
			t.Errorf("iteration %d: event %d has seq %d", iter, k, ev.Seq)
			return
		}
	}
}

// TestSubscribeRacingFinishSeesTerminalEvent races subscribe against finish:
// whichever wins, a subscriber's replay plus live stream must end with the
// terminal event. One subscriber streams from before the finish; another
// re-subscribes in a tight loop until it lands on the terminal state, so a
// finish that flipped the status before appending its event — letting a
// subscribe in between get a closed stream with no terminal event — is
// caught within a few iterations.
func TestSubscribeRacingFinishSeesTerminalEvent(t *testing.T) {
	for i := 0; i < 2000 && !t.Failed(); i++ {
		j := newJob("j", "h", CanonicalSpec{})
		j.setRunning()
		replay, live, cancel := j.subscribe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			events := replay
			for ev := range live {
				events = append(events, ev)
			}
			cancel()
			checkTerminalStream(t, i, events, "failed")
		}()
		go func() {
			defer wg.Done()
			for {
				replay, live, cancel := j.subscribe()
				select {
				case _, open := <-live:
					if !open { // already terminal when subscribed
						checkTerminalStream(t, i, replay, "failed")
						return
					}
				default:
				}
				cancel()
			}
		}()
		j.finish(StatusFailed, nil, "boom")
		wg.Wait()
	}
}

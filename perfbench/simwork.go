package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets up its system under test; the
// reported setup_s is the median.
const setupRepeats = 15

// simWorkload describes one simulator workload's closed loop: each
// operation asks the child for one result, either for a fresh input (a
// miss: nothing has produced it yet) or for an input seen earlier in the run
// (a hit: the facade caches nothing, so a repeat costs a full recompute —
// the baseline the idylld caches are measured against).
type simWorkload struct {
	name    string
	newProb float64
	limit   time.Duration
	check   func(sutReply) error
	// layers runs the per-layer probes of a traced run on the first input
	// and the reply it produced.
	layers func(ctx context.Context, e *env, seed uint64, first sutReply, res *result) (map[string]float64, error)
}

func runFig11Suite(ctx context.Context, e *env) (*result, error) {
	return runSimWorkload(ctx, e, simWorkload{
		name:    "fig11-suite",
		newProb: 0.35,
		limit:   fig11Limit,
		check: func(r sutReply) error {
			if r.Values["cells"] != r.Values["planned_cells"] {
				return fmt.Errorf("the runner completed %.0f cells, want %.0f", r.Values["cells"], r.Values["planned_cells"])
			}
			if r.Values["idyll_ave"] <= 1 {
				return fmt.Errorf("IDYLL Ave. = %.3f, want > 1", r.Values["idyll_ave"])
			}
			return nil
		},
		layers: fig11Layers,
	})
}

func runScaleout(ctx context.Context, e *env) (*result, error) {
	return runSimWorkload(ctx, e, simWorkload{
		name:    "scaleout-16gpu",
		newProb: 0.25,
		limit:   scaleoutLimit,
		check: func(r sutReply) error {
			if r.Values["speedup"] <= 0 || r.Accesses != 2*scaleGPUs*scaleCUs*scaleAccesses {
				return fmt.Errorf("speedup %.3f over %.0f accesses", r.Values["speedup"], r.Accesses)
			}
			return nil
		},
		layers: scaleoutLayers,
	})
}

// Operation latency limits, fixed from the seed runs recorded in README.md
// (about twice the median operation time).
const (
	fig11Limit    = 1500 * time.Millisecond
	scaleoutLimit = 500 * time.Millisecond
)

func runSimWorkload(ctx context.Context, e *env, w simWorkload) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &result{}
	var child *sutProc
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		p, err := startSUT(self, w.name, e.nproc)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(start))
		if i < setupRepeats-1 {
			if err := p.close(); err != nil {
				return nil, err
			}
		} else {
			child = p
		}
	}
	defer child.close()

	rng := seededRand(e.seed, scheduleStream)
	var seeds []uint64
	first := map[int]string{}
	var firstReply sutReply
	t0 := time.Now()
	prevDone := t0
	for i := 0; time.Since(t0) < e.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx, fresh := nextInput(rng, len(seeds), w.newProb)
		if fresh {
			seeds = append(seeds, inputSeed(e.seed, idx))
		}
		traced := e.trace && i%2 == 0
		due := time.Now()
		rep, err := child.call(seeds[idx], traced)
		done := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s child: %w", w.name, err)
		}
		o := op{latency: done.Sub(due), lag: due.Sub(prevDone), hit: !fresh, limit: w.limit,
			traced: traced, accesses: rep.Accesses}
		prevDone = done
		cerr := checkReply(w, rep, idx, fresh, first)
		o.ok = cerr == nil
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d (seed %d): %v\n", w.name, i, seeds[idx], cerr)
		}
		if traced {
			req := int64(i + 1)
			root := e.spans.record("op "+w.name, 0, req, due, done)
			for _, s := range rep.Spans {
				e.spans.record(s.Name, root, req, due.Add(time.Duration(s.Start)), due.Add(time.Duration(s.End)))
			}
		}
		if i == 0 {
			firstReply = rep
		}
		res.ops = append(res.ops, o)
	}
	res.window = time.Since(t0)
	res.rssMB = peakRSSMB(child.cmd.Process.Pid)
	if e.trace {
		layers, err := w.layers(ctx, e, seeds[0], firstReply, res)
		if err != nil {
			return nil, err
		}
		res.layers = layers
	}
	return res, nil
}

func checkReply(w simWorkload, rep sutReply, idx int, fresh bool, first map[int]string) error {
	if rep.Error != "" {
		return fmt.Errorf("operation failed: %s", rep.Error)
	}
	if err := w.check(rep); err != nil {
		return err
	}
	if fresh {
		first[idx] = rep.Digest
	} else if rep.Digest != first[idx] {
		return fmt.Errorf("repeat output digest %s differs from first %s", rep.Digest[:12], first[idx][:12])
	}
	return nil
}

// nextInput picks the next operation's input: a fresh one with probability
// newProb (always for the first), otherwise a uniformly drawn earlier one.
func nextInput(rng *rand.Rand, seen int, newProb float64) (idx int, fresh bool) {
	if seen == 0 || rng.Float64() < newProb {
		return seen, true
	}
	return rng.IntN(seen), false
}

// inputSeed derives the i-th input's simulation seed from the benchmark
// seed (splitmix64; never 0, which the facade reads as "default").
func inputSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// sutProc is a running child serving one simulator workload.
type sutProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

// startSUT launches the child and returns once it has resolved its inputs.
func startSUT(self, workload string, jobs int) (*sutProc, error) {
	cmd := exec.Command(self, "-sut", workload)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &sutProc{cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(bufio.NewReader(out))}
	if err := p.enc.Encode(sutConfig{Jobs: jobs}); err != nil {
		p.close()
		return nil, err
	}
	var r sutReply
	if err := p.dec.Decode(&r); err != nil || !r.Ready {
		p.close()
		return nil, fmt.Errorf("%s child did not become ready: %v", workload, err)
	}
	return p, nil
}

func (p *sutProc) call(seed uint64, trace bool) (sutReply, error) {
	if err := p.enc.Encode(sutCall{Seed: seed, Trace: trace}); err != nil {
		return sutReply{}, err
	}
	var r sutReply
	err := p.dec.Decode(&r)
	return r, err
}

// close ends the child by closing its stdin and waits for it, killing it
// if it has not exited within ten seconds.
func (p *sutProc) close() error {
	p.in.Close()
	kill := time.AfterFunc(10*time.Second, func() { p.cmd.Process.Kill() })
	defer kill.Stop()
	return p.cmd.Wait()
}

// peakRSSMB reads a live process's peak resident set (VmHWM) in MB, or 0
// if it cannot be read.
func peakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// Random streams drawn from one benchmark seed.
const (
	scheduleStream  = 0x5c4ed
	catalogueStream = 0xca7a
)

// seededRand returns the seed's random stream, scrambling the seed first so
// that neighbouring seeds start far apart.
func seededRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(inputSeed(seed, int(stream)), stream))
}

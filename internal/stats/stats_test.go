package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"idyll/internal/sim"
)

func TestLatencyAccumulator(t *testing.T) {
	var l Latency
	for _, v := range []sim.VTime{10, 20, 30} {
		l.Add(v)
	}
	if l.Count != 3 || l.Sum != 60 || l.Max != 30 {
		t.Fatalf("latency = %+v", l)
	}
	if l.Mean() != 20 {
		t.Fatalf("mean = %v", l.Mean())
	}
	var empty Latency
	if empty.Mean() != 0 {
		t.Fatal("empty mean not 0")
	}
}

func TestMPKI(t *testing.T) {
	var s Sim
	s.Instructions = 10000
	s.L2TLBLookups = 600
	s.L2TLBHits = 100
	if got := s.MPKI(); got != 50 {
		t.Fatalf("MPKI = %v, want 50", got)
	}
	if new(Sim).MPKI() != 0 {
		t.Fatal("MPKI with no instructions should be 0")
	}
}

func TestSpeedup(t *testing.T) {
	var base, opt Sim
	base.ExecCycles = 2000
	opt.ExecCycles = 1000
	if got := opt.Speedup(&base); got != 2 {
		t.Fatalf("speedup = %v", got)
	}
}

func TestUnnecessaryInvalFraction(t *testing.T) {
	var s Sim
	s.InvalNecessary = 68
	s.InvalUnnecessary = 32
	if got := s.UnnecessaryInvalFraction(); math.Abs(got-0.32) > 1e-12 {
		t.Fatalf("fraction = %v", got)
	}
}

func TestSummaryMentionsKeyNumbers(t *testing.T) {
	var s Sim
	s.ExecCycles = 12345
	s.Migrations = 7
	out := s.Summary()
	for _, want := range []string{"12345", "migrations=7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary %q missing %q", out, want)
		}
	}
}

// A Sim is a plain value: copying one copies every measurement, and a
// finished run's Sim keeps nothing else alive.
func TestSimHoldsNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.Map, reflect.Slice, reflect.Interface,
			reflect.Func, reflect.Chan, reflect.String, reflect.UnsafePointer:
			t.Errorf("%s is a %s", path, ty.Kind())
		}
	}
	walk("Sim", reflect.TypeOf(Sim{}))
}

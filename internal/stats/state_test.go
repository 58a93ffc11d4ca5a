package stats

import (
	"reflect"
	"testing"

	"idyll/internal/checkpoint"
	"idyll/internal/sim"
)

// fillNumericFields sets every settable numeric leaf field of v (recursing
// into plain structs like Latency) to a distinct non-zero value.
func fillNumericFields(v reflect.Value, next *uint64) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			continue // unexported: handled explicitly by the test
		}
		switch f.Kind() {
		case reflect.Uint64, reflect.Uint32, reflect.Uint:
			*next++
			f.SetUint(*next)
		case reflect.Int64, reflect.Int32, reflect.Int:
			*next++
			f.SetInt(int64(*next))
		case reflect.Struct:
			fillNumericFields(f, next)
		}
	}
}

// TestSaveRestoreCoversAllFields fills every numeric field of a Sim with a
// distinct value, round-trips it through SaveState/RestoreState, and requires
// the restored copy to deep-equal the original field by field. A counter
// added to Sim but missing from the state methods stays zero after restore
// and fails here by name.
func TestSaveRestoreCoversAllFields(t *testing.T) {
	orig := new(Sim)
	var next uint64
	fillNumericFields(reflect.ValueOf(orig).Elem(), &next)
	if next == 0 {
		t.Fatal("fillNumericFields found no fields")
	}
	// The histogram buckets are unexported: fill them through Add.
	for i, l := range []*Latency{&orig.DemandMiss, &orig.Inval, &orig.MigrationWait, &orig.MigrationTotal} {
		l.Add(sim.VTime(17 << i))
		l.Add(0)
	}

	w := checkpoint.NewWriter()
	orig.SaveState(w)
	r, err := checkpoint.NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	restored := new(Sim)
	restored.RestoreState(r)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}

	ov := reflect.ValueOf(orig).Elem()
	rv := reflect.ValueOf(restored).Elem()
	ty := ov.Type()
	for i := 0; i < ov.NumField(); i++ {
		of, rf := ov.Field(i), rv.Field(i)
		if !of.CanSet() {
			continue
		}
		switch of.Kind() {
		case reflect.Uint64, reflect.Uint32, reflect.Uint,
			reflect.Int64, reflect.Int32, reflect.Int, reflect.Struct:
			if !reflect.DeepEqual(of.Interface(), rf.Interface()) {
				t.Errorf("field %s: restored %v, want %v — is it missing from the state methods?",
					ty.Field(i).Name, rf.Interface(), of.Interface())
			}
		}
	}
	// A second save of the restored collector must reproduce the bytes exactly —
	// the property the whole-machine byte-identity gate composes from.
	w2 := checkpoint.NewWriter()
	restored.SaveState(w2)
	if !reflect.DeepEqual(w.Finish(), w2.Finish()) {
		t.Error("save → restore → save is not byte-identical")
	}
}

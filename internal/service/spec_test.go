package service

import (
	"encoding/json"
	"strings"
	"testing"
)

func mustCanon(t *testing.T, s JobSpec) CanonicalSpec {
	t.Helper()
	c, err := s.Canonicalize()
	if err != nil {
		t.Fatalf("Canonicalize(%+v): %v", s, err)
	}
	return c
}

func mustHash(t *testing.T, s JobSpec) string {
	t.Helper()
	h, err := mustCanon(t, s).Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSpecHashCollapsesSpellings(t *testing.T) {
	base := mustHash(t, JobSpec{Kind: "cell", App: "PR", Scheme: "idyll"})
	same := []JobSpec{
		{Kind: "CELL", App: "pr", Scheme: "IDYLL"},
		{Kind: "cell", App: "PR", Scheme: "idyll", Figure: "cell"},
		{Kind: "cell", App: "PR", Scheme: "idyll", TimeoutMS: 5000}, // execution knob
		{Kind: "cell", App: "PR", Scheme: "idyll",
			Options: json.RawMessage(`{"cus_per_gpu":16,"accesses_per_cu":600,"seed":20231028,"counter_threshold":2}`)},
	}
	for _, s := range same {
		if h := mustHash(t, s); h != base {
			t.Errorf("spec %+v hashed %s, want %s", s, h, base)
		}
	}
	diff := []JobSpec{
		{Kind: "cell", App: "MM", Scheme: "idyll"},
		{Kind: "cell", App: "PR", Scheme: "baseline"},
		{Kind: "cell", App: "PR", Scheme: "idyll", Figure: "fig11"},
		{Kind: "cell", App: "PR", Scheme: "idyll",
			Options: json.RawMessage(`{"seed":7}`)},
	}
	for _, s := range diff {
		if h := mustHash(t, s); h == base {
			t.Errorf("spec %+v hashed identically to the base spec", s)
		}
	}
}

// TestSpecHashGolden pins the canonical bytes and content address of a
// cell spec, a figure spec, a spec with apps and a spec with a warmup: a
// change here orphans every on-disk result cache and reroutes every fleet
// job.
func TestSpecHashGolden(t *testing.T) {
	for _, c := range []struct{ spec, canonical, hash string }{
		{`{"kind":"cell","app":"PR","scheme":"idyll","options":{"cus_per_gpu":4,"accesses_per_cu":200}}`,
			`{"kind":"cell","figure":"cell","app":"PR","scheme":"idyll","options":{"cus_per_gpu":4,"accesses_per_cu":200,"seed":20231028,"counter_threshold":2}}`,
			"51b92d6156c9e48aee043a4a8cf917913422051d6d7ce29eb8aaa06e26ed5105"},
		{`{"kind":"figure","figure":"fig11"}`,
			`{"kind":"figure","figure":"fig11","options":{"cus_per_gpu":16,"accesses_per_cu":600,"seed":20231028,"counter_threshold":2}}`,
			"349da3d9072ba9141d80748f16d4b26321b774bb44db5154bc636a47881e3fee"},
		{`{"kind":"figure","figure":"fig11","options":{"apps":["pr","KM"],"seed":7}}`,
			`{"kind":"figure","figure":"fig11","options":{"cus_per_gpu":16,"accesses_per_cu":600,"seed":7,"apps":["PR","KM"],"counter_threshold":2}}`,
			"ee629d616bbb0e6e4c87389c37749631cbe6c44865025c30e9a8142f9a6bb186"},
		{`{"kind":"cell","figure":"fig11","app":"KM","scheme":"only-lazy","options":{"cus_per_gpu":2,"accesses_per_cu":60,"warmup_accesses_per_cu":30,"counter_threshold":4}}`,
			`{"kind":"cell","figure":"fig11","app":"KM","scheme":"lazy","options":{"cus_per_gpu":2,"accesses_per_cu":60,"seed":20231028,"counter_threshold":4,"warmup_accesses_per_cu":30}}`,
			"dbbf5e80e2deb84beee517b72b85b44b3c275d357cb52559e33081a647893425"},
	} {
		spec, err := DecodeSpec([]byte(c.spec))
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		canon := mustCanon(t, spec)
		raw, err := canon.canonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != c.canonical {
			t.Errorf("%s: canonical\n %s\nwant\n %s", c.spec, raw, c.canonical)
		}
		if h, err := canon.Hash(); err != nil || h != c.hash {
			t.Errorf("%s: hash %s (err %v), want %s", c.spec, h, err, c.hash)
		}
	}
}

func TestSpecSchemeAliasCanonicalizes(t *testing.T) {
	a := mustCanon(t, JobSpec{Kind: "cell", App: "PR", Scheme: "only-lazy"})
	b := mustCanon(t, JobSpec{Kind: "cell", App: "PR", Scheme: "lazy"})
	if a.Scheme != "lazy" || b.Scheme != "lazy" {
		t.Errorf("alias canonicalized to %q / %q, want \"lazy\"", a.Scheme, b.Scheme)
	}
}

func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{}, "kind"},
		{JobSpec{Kind: "batch"}, "unknown kind"},
		{JobSpec{Kind: "cell", App: "PR"}, "scheme"},
		{JobSpec{Kind: "cell", App: "NOSUCH", Scheme: "idyll"}, "unknown application"},
		{JobSpec{Kind: "cell", App: "PR", Scheme: "NOSUCH"}, "unknown scheme"},
		{JobSpec{Kind: "figure"}, "figure"},
		{JobSpec{Kind: "figure", Figure: "fig99"}, "unknown id"},
		{JobSpec{Kind: "figure", Figure: "fig11", App: "PR"}, "only apply to cell"},
		{JobSpec{Kind: "cell", App: "PR", Scheme: "idyll", TimeoutMS: -1}, "negative"},
		{JobSpec{Kind: "cell", App: "PR", Scheme: "idyll",
			Options: json.RawMessage(`{"cus_per_gpu":-4}`)}, "negative"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Canonicalize()
		if err == nil {
			t.Errorf("Canonicalize(%+v) succeeded, want error containing %q", tc.spec, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Canonicalize(%+v) error %q, want substring %q", tc.spec, err, tc.want)
		}
	}
}

// Unknown-scheme and unknown-figure errors must name the valid choices —
// the shared-resolver contract the CLIs rely on too.
func TestSpecErrorsListValidNames(t *testing.T) {
	_, err := JobSpec{Kind: "cell", App: "PR", Scheme: "bogus"}.Canonicalize()
	if err == nil || !strings.Contains(err.Error(), "idyll+transfw") {
		t.Errorf("scheme error should list valid names, got: %v", err)
	}
	_, err = JobSpec{Kind: "figure", Figure: "bogus"}.Canonicalize()
	if err == nil || !strings.Contains(err.Error(), "fig11") {
		t.Errorf("figure error should list valid IDs, got: %v", err)
	}
}

func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"kind":"cell","app":"PR","scheme":"idyll","gpus":8}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
}

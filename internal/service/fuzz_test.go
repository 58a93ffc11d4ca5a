package service

import (
	"strings"
	"testing"
)

// FuzzSplitComma guards the X-Idyll-Copyset header parser:
// whatever a peer sends, the parse never panics, never yields an empty
// element, and never yields an element containing a comma or a space —
// join(parse(s)) must be a fixed point of the parse.
func FuzzSplitComma(f *testing.F) {
	f.Add("")
	f.Add("http://a:1,http://b:2")
	f.Add(" http://a:1 , ,, http://b:2 ")
	f.Add(",,,")
	f.Add("a,\x00,b")
	f.Fuzz(func(t *testing.T, s string) {
		out := splitComma(s)
		for _, el := range out {
			if el == "" {
				t.Fatalf("splitComma(%q) produced an empty element: %q", s, out)
			}
			if strings.ContainsAny(el, ", ") {
				t.Fatalf("splitComma(%q) element %q keeps separator chars", s, el)
			}
		}
		again := splitComma(strings.Join(out, ","))
		if len(again) != len(out) {
			t.Fatalf("splitComma not idempotent on %q: %q vs %q", s, out, again)
		}
		for i := range out {
			if again[i] != out[i] {
				t.Fatalf("splitComma not idempotent on %q: %q vs %q", s, out, again)
			}
		}
	})
}

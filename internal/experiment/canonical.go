package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"idyll/internal/workload"
)

// Canonical validates o and returns a normalized copy suitable for hashing:
// every zero-valued scale field is filled from DefaultOptions, so all
// spellings of "the default" collapse to one representation, and negative or
// non-finite values — which Run would silently ignore or misbehave on — are
// rejected. App order is preserved (it is part of result identity: it sets
// table column order), but every app must resolve through the Table 3 / DNN
// registry. Jobs/Progress/context are zeroed: execution knobs, not
// identity.
func (o Options) Canonical() (Options, error) {
	if err := o.validateFinite(); err != nil {
		return Options{}, err
	}
	def := DefaultOptions()
	c := Options{
		CUsPerGPU:           o.CUsPerGPU,
		AccessesPerCU:       o.AccessesPerCU,
		Seed:                o.Seed,
		CounterThreshold:    o.CounterThreshold,
		WarmupAccessesPerCU: o.WarmupAccessesPerCU,
	}
	if c.CUsPerGPU == 0 {
		c.CUsPerGPU = def.CUsPerGPU
	}
	if c.AccessesPerCU == 0 {
		c.AccessesPerCU = def.AccessesPerCU
	}
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	if c.CounterThreshold == 0 {
		c.CounterThreshold = def.CounterThreshold
	}
	if len(o.Apps) > 0 {
		c.Apps = make([]string, len(o.Apps))
		for i, abbr := range o.Apps {
			p, err := workload.App(abbr)
			if err != nil {
				return Options{}, fmt.Errorf("experiment: options: %w", err)
			}
			c.Apps[i] = p.Abbr // canonical spelling from the registry
		}
	}
	return c, nil
}

// validateFinite rejects values Canonical must never normalize away.
func (o Options) validateFinite() error {
	checkInt := func(name string, v int) error {
		if v < 0 {
			return fmt.Errorf("experiment: options: %s = %d is negative", name, v)
		}
		// Guard the float64 round-trip canonical JSON performs: beyond 2^53
		// encode(decode(x)) would no longer be byte-stable.
		if float64(v) > math.MaxInt32 {
			return fmt.Errorf("experiment: options: %s = %d is implausibly large", name, v)
		}
		return nil
	}
	if err := checkInt("CUsPerGPU", o.CUsPerGPU); err != nil {
		return err
	}
	if err := checkInt("AccessesPerCU", o.AccessesPerCU); err != nil {
		return err
	}
	if err := checkInt("CounterThreshold", o.CounterThreshold); err != nil {
		return err
	}
	if err := checkInt("WarmupAccessesPerCU", o.WarmupAccessesPerCU); err != nil {
		return err
	}
	if err := checkInt("Jobs", o.Jobs); err != nil {
		return err
	}
	return nil
}

// CanonicalJSON returns the byte-stable encoding of o's canonical form:
// fixed field order, no insignificant whitespace, default-filled values.
// Equal result-identities encode to equal bytes, so the encoding can key a
// content-addressed cache. decode(encode(x)) then encode again is the
// identity on bytes (see TestCanonicalJSONByteStable).
func (o Options) CanonicalJSON() ([]byte, error) {
	c, err := o.Canonical()
	if err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// OptionsFromCanonicalJSON decodes a CanonicalJSON payload back into
// Options. Unknown fields, the execution fields included, are rejected — a
// spec naming a knob this version does not understand must not silently
// hash to an existing result.
func OptionsFromCanonicalJSON(raw []byte) (Options, error) {
	var o Options
	if err := strictUnmarshal(raw, &o); err != nil {
		return Options{}, fmt.Errorf("experiment: options JSON: %w", err)
	}
	return o.Canonical()
}

// strictUnmarshal is json.Unmarshal with unknown fields disallowed.
func strictUnmarshal(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

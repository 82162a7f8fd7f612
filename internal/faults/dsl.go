package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/can"
)

// Plan DSL — the textual form behind `canfuzz -chaos`. A plan is a list of
// `;`-separated clauses; each clause is either `seed=N` or a fault call
// `kind(key=value,...)`:
//
//	seed=42;
//	corrupt(p=1,at=2s,for=50ms);
//	drop(p=0.05,at=0s);
//	dup(p=0.01);
//	babble(id=005,at=2s,for=1s,every=500us);
//	jam(at=4s,for=10ms);
//	stall(ecu=cluster,at=3s,for=500ms);
//	panic(ecu=cluster,at=6s,detail=injected);
//	detach(port=fuzzer,at=5s,for=1s)
//
// Durations use Go syntax (`50ms`, `2s`, `500us`); identifiers are hex;
// probabilities are decimals in (0,1]. Whitespace is ignored everywhere.

// ParsePlan parses the -chaos plan syntax.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return p, fmt.Errorf("faults: bad seed %q: %v", v, err)
			}
			p.Seed = seed
			continue
		}
		spec, err := parseClause(clause)
		if err != nil {
			return p, err
		}
		p.Specs = append(p.Specs, spec)
	}
	if len(p.Specs) == 0 {
		return p, fmt.Errorf("faults: plan %q has no fault clauses", s)
	}
	return p, nil
}

// parseClause parses one `kind(key=value,...)` call.
func parseClause(clause string) (Spec, error) {
	var s Spec
	open := strings.IndexByte(clause, '(')
	if open < 1 || !strings.HasSuffix(clause, ")") {
		return s, fmt.Errorf("faults: clause %q is not kind(key=value,...)", clause)
	}
	kind := Kind(strings.TrimSpace(clause[:open]))
	switch kind {
	case KindCorrupt, KindDrop, KindDup, KindBabble, KindJam, KindStall, KindPanic, KindDetach:
		s.Kind = kind
	default:
		return s, fmt.Errorf("faults: unknown fault kind %q", kind)
	}
	body := clause[open+1 : len(clause)-1]
	if strings.TrimSpace(body) == "" {
		return s, nil
	}
	for _, kv := range strings.Split(body, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return s, fmt.Errorf("faults: parameter %q in %q is not key=value", kv, clause)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "at":
			s.At, err = time.ParseDuration(val)
		case "for":
			s.For, err = time.ParseDuration(val)
		case "every":
			s.Every, err = time.ParseDuration(val)
		case "p", "prob":
			s.Prob, err = strconv.ParseFloat(val, 64)
		case "id":
			s.ID, err = can.ParseID(val)
		case "ecu", "port", "target":
			s.Target = val
		case "detail":
			s.Detail = val
		default:
			return s, fmt.Errorf("faults: unknown parameter %q in %q", key, clause)
		}
		if err != nil {
			return s, fmt.Errorf("faults: bad %s in %q: %v", key, clause, err)
		}
	}
	return s, nil
}

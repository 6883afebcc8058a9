// Plan DSL: a pipe syntax for small query plans, parsed into logical
// Plans for cmd/wlquery.
//
// Grammar (whitespace-insensitive; '|' pipes stages left to right):
//
//	plan    := 'scan(' NAME ')' { '|' stage }
//	stage   := 'filter(' attr OP UINT ')'
//	         | 'project(' attr { ',' attr } ')'
//	         | 'join(' plan [ ';' join_algo ] ')'
//	         | 'groupby(' attr [ ',' 'groups' '=' UINT ] [ ';' sort_algo ] ')'
//	         | 'orderby' [ '(' sort_algo ')' ]
//	         | 'limit(' UINT ')'
//	attr    := 'a' DIGIT+                 (a0 is the key)
//	OP      := '==' | '!=' | '<' | '<=' | '>' | '>='
//	sort_algo := NAME { ':' X }       (a spelling of the sorts catalog)
//	join_algo := NAME { ':' X }       (a spelling of the joins catalog)
//
// The algorithm names and their knob counts are whatever the catalogs in
// internal/sorts and internal/joins declare (sorts.Spellings,
// joins.Spellings — "ExMS", "SegS:0.4", "HybJ:0.5:0.5"); a knob is a
// fraction in [0, 1].
//
// Stages that omit the algorithm leave the choice to the physical
// planner. The scan starting the plan is the join build side — put the
// smaller table there. Example:
//
//	scan(dim) | join(scan(fact)) | project(a0,a3,a2,a3,a4,a5,a6,a7,a8,a9)
//	  | groupby(a3, groups=1000) | orderby | limit(10)
package exec

import (
	"fmt"
	"strconv"
	"strings"

	"wlpm/internal/joins"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

// TableLookup resolves a DSL table name to its collection.
type TableLookup func(name string) (storage.Collection, error)

// ParsePlan parses the plan DSL, resolving table names through lookup.
func ParsePlan(src string, lookup TableLookup) (*Plan, error) {
	stages, err := splitTop(src, '|')
	if err != nil {
		return nil, err
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("exec: empty plan")
	}
	var p *Plan
	for i, st := range stages {
		st = strings.TrimSpace(st)
		name, arg, err := splitCall(st)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if name != "scan" {
				return nil, fmt.Errorf("exec: plan must start with scan(...), got %q", st)
			}
		} else if name == "scan" {
			return nil, fmt.Errorf("exec: scan(...) only starts a plan")
		}
		p, err = applyStage(p, name, arg, lookup)
		if err != nil {
			return nil, err
		}
	}
	if p.Err() != nil {
		return nil, p.Err()
	}
	return p, nil
}

func applyStage(p *Plan, name, arg string, lookup TableLookup) (*Plan, error) {
	switch name {
	case "scan":
		c, err := lookup(strings.TrimSpace(arg))
		if err != nil {
			return nil, err
		}
		return Table(c), nil

	case "filter":
		pred, err := parsePredicate(arg)
		if err != nil {
			return nil, err
		}
		return p.Filter(pred), nil

	case "project":
		parts := strings.Split(arg, ",")
		attrs := make([]int, 0, len(parts))
		for _, part := range parts {
			a, err := parseAttr(strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, a)
		}
		return p.Project(attrs...), nil

	case "join":
		sub, algoName, err := splitAlgoSuffix(arg)
		if err != nil {
			return nil, err
		}
		right, err := ParsePlan(sub, lookup)
		if err != nil {
			return nil, err
		}
		var a joins.Algorithm
		if algoName != "" {
			if a, err = joins.Parse(algoName); err != nil {
				return nil, fmt.Errorf("exec: %w", err)
			}
		}
		return p.JoinWith(right, a), nil

	case "groupby":
		sub, algoName, err := splitAlgoSuffix(arg)
		if err != nil {
			return nil, err
		}
		var a sorts.Algorithm
		if algoName != "" {
			if a, err = sorts.Parse(algoName); err != nil {
				return nil, fmt.Errorf("exec: %w", err)
			}
		}
		parts := strings.Split(sub, ",")
		attr, err := parseAttr(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, err
		}
		groups := 0
		for _, part := range parts[1:] {
			part = strings.TrimSpace(part)
			val, ok := strings.CutPrefix(part, "groups=")
			if !ok {
				return nil, fmt.Errorf("exec: bad groupby option %q (want groups=N)", part)
			}
			if groups, err = strconv.Atoi(strings.TrimSpace(val)); err != nil || groups <= 0 {
				return nil, fmt.Errorf("exec: bad group count %q", val)
			}
		}
		if groups > 0 {
			p = p.GroupHint(groups)
		}
		return p.GroupByWith(attr, a), nil

	case "orderby":
		if strings.TrimSpace(arg) == "" {
			return p.OrderBy(), nil
		}
		a, err := sorts.Parse(strings.TrimSpace(arg))
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		return p.OrderByWith(a), nil

	case "limit":
		n, err := strconv.Atoi(strings.TrimSpace(arg))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("exec: bad limit %q", arg)
		}
		return p.Limit(n), nil
	}
	return nil, fmt.Errorf("exec: unknown stage %q", name)
}

// parsePredicate parses "aN OP VALUE".
func parsePredicate(s string) (Predicate, error) {
	s = strings.TrimSpace(s)
	for _, op := range []struct {
		tok string
		op  CmpOp
	}{ // two-char operators first so "<=" doesn't parse as "<"
		{"==", Eq}, {"!=", Ne}, {"<=", Le}, {">=", Ge}, {"<", Lt}, {">", Gt},
	} {
		if i := strings.Index(s, op.tok); i >= 0 {
			attr, err := parseAttr(strings.TrimSpace(s[:i]))
			if err != nil {
				return Predicate{}, err
			}
			v, err := strconv.ParseUint(strings.TrimSpace(s[i+len(op.tok):]), 10, 64)
			if err != nil {
				return Predicate{}, fmt.Errorf("exec: bad predicate value in %q", s)
			}
			return Predicate{Attr: attr, Op: op.op, Value: v}, nil
		}
	}
	return Predicate{}, fmt.Errorf("exec: bad predicate %q (want aN OP value)", s)
}

// parseAttr parses "aN".
func parseAttr(s string) (int, error) {
	num, ok := strings.CutPrefix(s, "a")
	if !ok {
		return 0, fmt.Errorf("exec: bad attribute %q (want aN)", s)
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("exec: bad attribute %q (want aN)", s)
	}
	return n, nil
}

// splitCall splits "name(arg)" or bare "name" into its parts, validating
// balanced parentheses.
func splitCall(s string) (name, arg string, err error) {
	i := strings.IndexByte(s, '(')
	if i < 0 {
		return s, "", nil
	}
	if !strings.HasSuffix(s, ")") {
		return "", "", fmt.Errorf("exec: unbalanced parentheses in %q", s)
	}
	body := s[i+1 : len(s)-1]
	depth := 0
	for _, r := range body {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return "", "", fmt.Errorf("exec: unbalanced parentheses in %q", s)
			}
		}
	}
	if depth != 0 {
		return "", "", fmt.Errorf("exec: unbalanced parentheses in %q", s)
	}
	return strings.TrimSpace(s[:i]), body, nil
}

// splitTop splits s on sep at parenthesis depth zero.
func splitTop(s string, sep byte) ([]string, error) {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("exec: unbalanced parentheses in %q", s)
			}
		case sep:
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("exec: unbalanced parentheses in %q", s)
	}
	parts = append(parts, s[start:])
	return parts, nil
}

// splitAlgoSuffix splits "body; algo" at top level, returning body and
// the optional algorithm name.
func splitAlgoSuffix(s string) (body, algoName string, err error) {
	parts, err := splitTop(s, ';')
	if err != nil {
		return "", "", err
	}
	switch len(parts) {
	case 1:
		return strings.TrimSpace(parts[0]), "", nil
	case 2:
		return strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), nil
	}
	return "", "", fmt.Errorf("exec: more than one ';' in %q", s)
}

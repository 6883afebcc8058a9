// Package cliutil unifies flag validation and exit-code conventions
// across the repository's commands: usage errors (bad flag values,
// unknown algorithm names) print a one-line message plus a usage hint to
// stderr and exit 2; runtime failures exit 1. Every cmd/* main shares
// these helpers so the conventions cannot drift.
package cliutil

import (
	"fmt"
	"os"
	"strings"
)

// exit is swapped out by tests.
var exit = os.Exit

// Usage prints a usage-style error for cmd and exits 2.
func Usage(cmd, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", cmd, fmt.Sprintf(format, args...))
	fmt.Fprintf(os.Stderr, "run '%s -h' for usage\n", cmd)
	exit(2)
}

// Fatal reports a runtime failure for cmd and exits 1.
func Fatal(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	exit(1)
}

// CheckParallelism rejects negative -p values (0 and 1 both mean
// serial).
func CheckParallelism(cmd string, p int) {
	if p < 0 {
		Usage(cmd, "-p must be non-negative, got %d", p)
	}
}

// CheckPositiveInt rejects non-positive integer flags.
func CheckPositiveInt(cmd, flagName string, v int) {
	if v <= 0 {
		Usage(cmd, "-%s must be positive, got %d", flagName, v)
	}
}

// CheckPositiveFloat rejects non-positive float flags (memory budgets,
// sizes).
func CheckPositiveFloat(cmd, flagName string, v float64) {
	if v <= 0 {
		Usage(cmd, "-%s must be positive, got %g", flagName, v)
	}
}

// Algorithm resolves an -algo flag against a family's catalog (sorts or
// joins, through its Parse and New): a DSL spelling carrying its own
// knobs ("SegS:0.4"), or a bare name whose knobs the knob flags place.
func Algorithm[A any](cmd, spec string, parse func(string) (A, error), build func(string, ...float64) (A, error), knobs ...float64) A {
	a, err := build(spec, knobs...)
	if strings.Contains(spec, ":") {
		a, err = parse(spec)
	}
	if err != nil {
		Usage(cmd, "%v", err)
	}
	return a
}

// CheckFraction rejects knob flags outside [0, 1].
func CheckFraction(cmd, flagName string, v float64) {
	if !(v >= 0 && v <= 1) {
		Usage(cmd, "-%s must be a fraction in [0, 1], got %g", flagName, v)
	}
}

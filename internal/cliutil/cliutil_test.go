package cliutil

import (
	"errors"
	"math"
	"os"
	"testing"
)

// capture records the exit code instead of terminating. The result is
// named so the recovered panic still returns the recorded code.
func capture(t *testing.T, fn func()) (code int) {
	t.Helper()
	code = -1
	exit = func(c int) { code = c; panic("exit") }
	defer func() {
		exit = os.Exit
		_ = recover()
	}()
	fn()
	return code
}

func TestUsageErrorsExit2(t *testing.T) {
	for name, fn := range map[string]func(){
		"usage":       func() { Usage("cmd", "boom") },
		"parallelism": func() { CheckParallelism("cmd", -1) },
		"posint":      func() { CheckPositiveInt("cmd", "n", 0) },
		"posfloat":    func() { CheckPositiveFloat("cmd", "mem", -0.5) },
		"fraction":    func() { CheckFraction("cmd", "x", 1.5) },
		"NaN":         func() { CheckFraction("cmd", "x", math.NaN()) },
		"algo":        func() { Algorithm("cmd", "ZZZ", failingParse, failingBuild, 0.5) },
		"spelling":    func() { Algorithm("cmd", "A:0.5", failingParse, okBuild, 0.5) },
	} {
		if code := capture(t, fn); code != 2 {
			t.Errorf("%s: exit code %d, want 2", name, code)
		}
	}
}

func failingParse(string) (string, error) { return "", errors.New("no such spelling") }

func failingBuild(string, ...float64) (string, error) { return "", errors.New("no such name") }

func okBuild(name string, knobs ...float64) (string, error) { return name, nil }

func TestFatalExits1(t *testing.T) {
	if code := capture(t, func() { Fatal("cmd", errors.New("boom")) }); code != 1 {
		t.Errorf("Fatal exit code %d, want 1", code)
	}
}

func TestValidValuesPass(t *testing.T) {
	exit = func(int) { t.Error("exit called for valid value") }
	defer func() { exit = os.Exit }()
	CheckParallelism("cmd", 0)
	CheckParallelism("cmd", 8)
	CheckPositiveInt("cmd", "n", 1)
	CheckPositiveFloat("cmd", "mem", 0.05)
	CheckFraction("cmd", "x", 0)
	CheckFraction("cmd", "x", 1)
	// A bare name is built from the knob flags, never parsed as a spelling.
	if a := Algorithm("cmd", "A", failingParse, okBuild, 0.5); a != "A" {
		t.Errorf("Algorithm built %q, want A", a)
	}
}

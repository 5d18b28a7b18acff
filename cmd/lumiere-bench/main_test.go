package main

import (
	"bytes"
	"strings"
	"testing"

	"lumiere/internal/eval"
)

// TestUsageErrorsExit2: every rejected invocation exits 2 with a message
// on stderr before it runs a cell — the suite heading, printed before
// the first cell, never reaches stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown suite", []string{"-suite", "bogus"}, "valid suites are paper, chaos, attack, smr, wan, largen, redteam"},
		{"-n beside a suite without the massive-n table", []string{"-suite", "wan", "-n", "16"}, "only -suite largen"},
		{"-n beside the default suite", []string{"-n", "16"}, "only -suite largen"},
		{"-n below 4", []string{"-suite", "largen", "-n", "3"}, "need n ≥ 4"},
		{"-frontier without redteam", []string{"-suite", "chaos", "-frontier", "f.json"}, "-frontier needs -suite redteam"},
		{"-maxn beside the default suite", []string{"-maxn", "4096"}, "-maxn with -suite paper"},
		{"-maxn beside a suite without the massive-n table", []string{"-suite", "smr", "-maxn", "1024"}, "-maxn with -suite smr"},
		{"-maxn beside -n", []string{"-suite", "largen", "-n", "16", "-maxn", "4096"}, "-maxn beside -n"},
		{"-full with largen", []string{"-suite", "largen", "-full"}, "-full with -suite largen"},
		{"-full with redteam", []string{"-suite", "redteam", "-full"}, "-full with -suite redteam"},
		{"unknown flag", []string{"-chaos"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("ran the suite: stdout %q", stdout.String())
			}
		})
	}
}

// TestEverySuiteHasAHeading: the suites and the registry agree both
// ways — each section's suite is a valid -suite, and each -suite value
// runs at least one section.
func TestEverySuiteHasAHeading(t *testing.T) {
	sections := map[eval.Suite]int{}
	for _, sec := range eval.Evaluation {
		sections[sec.Suite]++
		found := false
		for _, s := range suites {
			found = found || s.name == sec.Suite
		}
		if !found {
			t.Errorf("section %s: suite %q is not a -suite value", sec.Key, sec.Suite)
		}
	}
	for _, s := range suites {
		if sections[s.name] == 0 {
			t.Errorf("-suite %s runs no section of eval.Evaluation", s.name)
		}
	}
}

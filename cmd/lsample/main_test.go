package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"locsample"
)

// buildLsample compiles this command into a temporary directory.
func buildLsample(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "lsample")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lsample: %v\n%s", err, out)
	}
	return bin
}

// lsampleJSON runs lsample -json with args and returns its samples.
func lsampleJSON(t *testing.T, bin string, args ...string) [][]int {
	t.Helper()
	out, err := exec.Command(bin, append(args, "-json")...).Output()
	if err != nil {
		t.Fatalf("lsample %s: %v", strings.Join(args, " "), err)
	}
	var r jsonReport
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatalf("lsample %s: %v", strings.Join(args, " "), err)
	}
	return r.Samples
}

// TestLsampleSeedsAgree pins one seed convention across every way lsample
// draws: at -seed s, the single draw, chain 0 of -count, the diagnosed
// draw and the -distributed LOCAL-model draw all equal the library's
// one-shot draw at ChainSeed(s, 0) — which is also what lserved returns
// for a request at seed s.
func TestLsampleSeedsAgree(t *testing.T) {
	bin := buildLsample(t)
	const seed = 7
	g := locsample.GridGraph(4, 4)
	for _, alg := range []locsample.Algorithm{locsample.LocalMetropolis, locsample.LubyGlauber} {
		ref, err := locsample.Sample(locsample.NewColoring(g, 3*g.MaxDeg()+1),
			locsample.WithAlgorithm(alg), locsample.WithRounds(30),
			locsample.WithSeed(locsample.ChainSeed(seed, 0)))
		if err != nil {
			t.Fatal(err)
		}
		base := []string{"-rows", "4", "-cols", "4", "-seed", "7", "-rounds", "30", "-alg", strings.ToLower(alg.String())}
		checkChainZero(t, bin, base, ref.Sample)
	}

	c := locsample.NewDominatingSet(g)
	init := make([]int, g.N())
	for i := range init {
		init[i] = 1
	}
	ref, _, err := locsample.SampleCSP(g, c, init, 30, locsample.ChainSeed(seed, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	checkChainZero(t, bin, []string{"-model", "domset", "-rows", "4", "-cols", "4", "-seed", "7", "-rounds", "30"}, ref)

	if err := exec.Command(bin, "-count", "2", "-distributed").Run(); err == nil {
		t.Fatal("-count 2 -distributed accepted")
	}
}

// checkChainZero requires every lsample flavor of base to draw want as
// its chain 0.
func checkChainZero(t *testing.T, bin string, base []string, want []int) {
	t.Helper()
	for _, extra := range [][]string{nil, {"-count", "3"}, {"-diag"}, {"-distributed"}} {
		got := lsampleJSON(t, bin, append(append([]string(nil), base...), extra...)...)
		if len(got) == 0 || !reflect.DeepEqual(got[0], want) {
			t.Fatalf("lsample %s %s: chain 0 = %v, want %v",
				strings.Join(base, " "), strings.Join(extra, " "), got, want)
		}
	}
}

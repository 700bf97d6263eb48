package locsample_test

// The cross-process gate: draws placed on real lsharded worker processes
// over loopback TCP must be byte-for-byte the centralized draws of the
// same model and seed. This is the end-to-end form of the repo's keystone
// invariant — the transport layer, the control protocol, the worker's
// spec/plan reconstruction, and the coordinator's result reassembly all
// sit between the two sides being compared.

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"locsample"
)

var lshardedBin struct {
	once sync.Once
	path string
	err  error
}

// buildLsharded compiles cmd/lsharded once per test binary run.
func buildLsharded(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH; skipping cross-process gate")
	}
	lshardedBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "lsharded-bin-")
		if err != nil {
			lshardedBin.err = err
			return
		}
		bin := filepath.Join(dir, "lsharded")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/lsharded")
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			lshardedBin.err = errors.New("building lsharded: " + err.Error() + "\n" + string(out))
			return
		}
		lshardedBin.path = bin
	})
	if lshardedBin.err != nil {
		t.Fatal(lshardedBin.err)
	}
	return lshardedBin.path
}

// startWorkerProcs spawns n lsharded processes on ephemeral loopback
// ports and scrapes their bound addresses from stdout.
func startWorkerProcs(t *testing.T, n int) []string {
	addrs, _ := startWorkerProcsArgs(t, n)
	return addrs
}

// startWorkerProcsArgs is startWorkerProcs with extra lsharded flags
// and access to the spawned processes — the chaos suite signals them
// (SIGSTOP/SIGKILL) mid-draw.
func startWorkerProcsArgs(t *testing.T, n int, extra ...string) ([]string, []*exec.Cmd) {
	t.Helper()
	bin := buildLsharded(t)
	addrs := make([]string, n)
	cmds := make([]*exec.Cmd, n)
	for i := range addrs {
		args := append([]string{"-addr", "127.0.0.1:0", "-quiet"}, extra...)
		cmd := exec.Command(bin, args...)
		cmds[i] = cmd
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan struct{})
			go func() { cmd.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				cmd.Process.Kill()
				<-done
			}
		})
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			t.Fatalf("worker %d: no listen line on stdout (err=%v)", i, sc.Err())
		}
		line := sc.Text()
		const prefix = "lsharded: listening on "
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("worker %d: unexpected stdout line %q", i, line)
		}
		addrs[i] = strings.TrimPrefix(line, prefix)
		go func() { // drain so the child never blocks on a full pipe
			for sc.Scan() {
			}
		}()
	}
	return addrs, cmds
}

// TestCrossProcessShardedBitIdentical is the MRF half of the gate: a
// grid coloring drawn across real worker processes at several shard
// counts, compared chain-for-chain against the centralized sampler.
func TestCrossProcessShardedBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := locsample.GridGraph(9, 7)
	m := locsample.NewColoring(g, 3*g.MaxDeg())
	const rounds, seed, k = 20, 61, 3

	central, err := locsample.NewSampler(m,
		locsample.WithRounds(rounds), locsample.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := central.SampleNFrom(seed, k)
	if err != nil {
		t.Fatal(err)
	}

	fleet := startWorkerProcs(t, 3)
	for _, shards := range []int{2, 3, 5, 8} {
		addrs := fleet
		if shards < len(addrs) {
			addrs = addrs[:shards]
		}
		s, err := locsample.NewSampler(m,
			locsample.WithRounds(rounds), locsample.WithSeed(seed),
			locsample.WithShards(shards), locsample.WithRemoteWorkers(addrs...))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got, err := s.SampleNFrom(seed, k)
		if err != nil {
			s.Close()
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got.Samples, want.Samples) {
			s.Close()
			t.Fatalf("shards=%d over %d processes: batch diverges from centralized", shards, len(addrs))
		}
		if len(addrs) > 1 && got.Shard.WireFrames == 0 {
			s.Close()
			t.Fatalf("shards=%d over %d processes: no frames crossed the wire", shards, len(addrs))
		}
		s.Close()
	}
}

// TestCrossProcessCSPBitIdentical is the CSP half of the gate: a
// dominating-set CSP across real worker processes, same contract.
func TestCrossProcessCSPBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := locsample.GridGraph(6, 6)
	c := locsample.NewDominatingSet(g)
	init := make([]int, c.N)
	for i := range init {
		init[i] = 1
	}
	const rounds, seed, k = 15, 23, 2

	central, err := locsample.NewCSPSampler(g, c, init,
		locsample.WithRounds(rounds), locsample.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := central.SampleNFrom(seed, k)
	if err != nil {
		t.Fatal(err)
	}

	fleet := startWorkerProcs(t, 3)
	for _, shards := range []int{2, 3, 5, 8} {
		addrs := fleet
		if shards < len(addrs) {
			addrs = addrs[:shards]
		}
		s, err := locsample.NewCSPSampler(g, c, init,
			locsample.WithRounds(rounds), locsample.WithSeed(seed),
			locsample.WithShards(shards), locsample.WithRemoteWorkers(addrs...))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got, err := s.SampleNFrom(seed, k)
		if err != nil {
			s.Close()
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got.Samples, want.Samples) {
			s.Close()
			t.Fatalf("shards=%d over %d processes: CSP batch diverges from centralized", shards, len(addrs))
		}
		s.Close()
	}
}

package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process the benchmark started. Its stdout and
// stderr go to files in the run directory.
type proc struct {
	name    string
	cmd     *exec.Cmd
	outPath string
	done    chan struct{} // closed once Wait has returned
	waitErr error
}

// startProc launches bin with args. The child gets SIGKILL if the
// benchmark dies first, so a crashed run leaves no orphans.
func startProc(runDir, name, bin string, args ...string) (*proc, error) {
	outPath := filepath.Join(runDir, name+".out")
	errPath := filepath.Join(runDir, name+".log")
	stdout, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	defer stdout.Close()
	stderr, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, outPath: outPath, done: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down, escalates to SIGKILL after a grace
// period, and returns once it has been reaped.
func (p *proc) stop() {
	if p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exit racing the signal is fine
	select {
	case <-p.done:
		return
	case <-time.After(5 * time.Second):
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// vmHWMKiB reads the process's peak resident set size.
func (p *proc) vmHWMKiB() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				break
			}
			return strconv.ParseInt(fs[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// fleet is one boot of the system under test: an lserved and, when the
// workload needs them, lsharded workers it coordinates.
type fleet struct {
	server  *proc
	workers []*proc
	base    string // http://127.0.0.1:port of lserved
}

// stop tears every process down, lserved first so no draw is in flight
// when its workers go.
func (f *fleet) stop() {
	if f.server != nil {
		f.server.stop()
	}
	for _, w := range f.workers {
		w.stop()
	}
}

// peakRSSMiB is the highest VmHWM across the fleet's processes.
func (f *fleet) peakRSSMiB() (float64, error) {
	var peak int64
	for _, p := range append([]*proc{f.server}, f.workers...) {
		kib, err := p.vmHWMKiB()
		if err != nil {
			return 0, err
		}
		if kib > peak {
			peak = kib
		}
	}
	return float64(peak) / 1024, nil
}

// startWorkers launches n lsharded workers on ephemeral loopback ports
// and returns them with their bound addresses, which each prints as its
// only stdout line.
func startWorkers(ctx context.Context, binDir, runDir, tag string, n int) ([]*proc, []string, error) {
	var ws []*proc
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := startProc(runDir, fmt.Sprintf("%s-lsharded%d", tag, i), filepath.Join(binDir, "lsharded"), "-addr", "127.0.0.1:0")
		if err != nil {
			stopAll(ws)
			return nil, nil, err
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		addr, err := waitListening(ctx, w)
		if err != nil {
			stopAll(ws)
			return nil, nil, err
		}
		addrs = append(addrs, addr)
	}
	return ws, addrs, nil
}

func stopAll(ps []*proc) {
	for _, p := range ps {
		p.stop()
	}
}

// waitListening polls a worker's stdout for "lsharded: listening on ADDR".
func waitListening(ctx context.Context, w *proc) (string, error) {
	const prefix = "lsharded: listening on "
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(w.outPath)
		if err != nil {
			return "", err
		}
		if i := strings.Index(string(data), prefix); i >= 0 {
			if line, _, ok := strings.Cut(string(data[i+len(prefix):]), "\n"); ok {
				return strings.TrimSpace(line), nil
			}
		}
		if w.exited() {
			return "", fmt.Errorf("%s exited before listening: %v (see %s)", w.name, w.waitErr, w.outPath)
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return "", err
		}
	}
	return "", fmt.Errorf("%s did not report its address within 30s", w.name)
}

// boot starts a fleet with default lserved flags plus -workers when
// nWorkers > 0, and returns once /healthz answers 200.
func boot(ctx context.Context, hc *http.Client, binDir, runDir, tag string, nWorkers int) (*fleet, error) {
	f := &fleet{}
	var extra []string
	if nWorkers > 0 {
		ws, addrs, err := startWorkers(ctx, binDir, runDir, tag, nWorkers)
		if err != nil {
			return nil, err
		}
		f.workers = ws
		extra = []string{"-workers", strings.Join(addrs, ",")}
	}
	if err := f.startServer(ctx, hc, binDir, runDir, tag, extra...); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// startServer starts lserved on a free loopback port, retrying with a
// new port if another process took the one it was given.
func (f *fleet) startServer(ctx context.Context, hc *http.Client, binDir, runDir, tag string, extra ...string) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		args := append([]string{"-addr", addr}, extra...)
		p, err := startProc(runDir, fmt.Sprintf("%s-lserved%d", tag, attempt), filepath.Join(binDir, "lserved"), args...)
		if err != nil {
			return err
		}
		base := "http://" + addr
		if lastErr = waitHealthy(ctx, hc, p, base); lastErr == nil {
			f.server, f.base = p, base
			return nil
		}
		p.stop()
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a loopback port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers 200 or the process exits.
func waitHealthy(ctx context.Context, hc *http.Client, p *proc, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up: %v", p.name, p.waitErr)
		}
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return err
		}
	}
	return errors.New(p.name + ": /healthz did not answer within 30s")
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

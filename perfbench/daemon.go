package main

// Real pipeschedd processes: start with default flags (only addresses and
// fleet membership are set), wait until ready, read their CPU and peak
// RSS from /proc, scrape /metrics, and stop them.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pipesched/internal/service"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

type daemon struct {
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited

	mu      sync.Mutex
	lines   []string
	watches []lineWatch
}

type lineWatch struct {
	substr string
	ch     chan struct{}
}

// freePort reserves a loopback port long enough to learn its number. A
// fleet member must know its own URL before it starts (-advertise).
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin with the listen address plus extra (fleet) flags.
func startDaemon(bin string, port int, extra ...string) (*daemon, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	return startProcess(bin, addr, append([]string{"-addr", addr}, extra...)...)
}

// startProcess execs bin with args; the process is to listen on addr.
func startProcess(bin, addr string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// A daemon must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	d := &daemon{url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go d.scan(out)
	return d, nil
}

func (d *daemon) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.lines = append(d.lines, line)
		kept := d.watches[:0]
		for _, w := range d.watches {
			if strings.Contains(line, w.substr) {
				close(w.ch)
			} else {
				kept = append(kept, w)
			}
		}
		d.watches = kept
		d.mu.Unlock()
	}
	d.cmd.Wait() //nolint:errcheck // the exit status of a stopped daemon is not interesting
	close(d.done)
}

// waitLine blocks until the daemon has logged a line containing substr
// (including lines logged before the call).
func (d *daemon) waitLine(substr string, timeout time.Duration) error {
	d.mu.Lock()
	for _, l := range d.lines {
		if strings.Contains(l, substr) {
			d.mu.Unlock()
			return nil
		}
	}
	ch := make(chan struct{})
	d.watches = append(d.watches, lineWatch{substr: substr, ch: ch})
	d.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-d.done:
		return fmt.Errorf("%s exited before logging %q:\n%s", d.url, substr, d.log())
	case <-time.After(timeout):
		return fmt.Errorf("%s did not log %q within %v", d.url, substr, timeout)
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.lines, "\n")
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up:\n%s", d.url, d.log())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within %v: %v", d.url, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (graceful drain), then SIGKILL after a grace period,
// and returns once the process has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-d.done:
		return
	case <-time.After(20 * time.Second):
	}
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-d.done
}

// cpu returns the process's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are space-separated, utime and stime being
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns VmHWM, the process's peak resident set, in bytes.
func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metrics scrapes GET /metrics.
func (d *daemon) metrics(ctx context.Context, hc *http.Client) (service.MetricsSnapshot, error) {
	var snap service.MetricsSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s/metrics: status %d", d.url, resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// fleet is the set of daemons one workload drives.
type fleet []*daemon

func (f fleet) stop() {
	var wg sync.WaitGroup
	for _, d := range f {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
}

func (f fleet) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, d := range f {
		c, err := d.cpu()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func (f fleet) peakRSS() (int64, error) {
	var sum int64
	for _, d := range f {
		r, err := d.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}

func (f fleet) metrics(ctx context.Context, hc *http.Client) ([]service.MetricsSnapshot, error) {
	out := make([]service.MetricsSnapshot, len(f))
	for i, d := range f {
		m, err := d.metrics(ctx, hc)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

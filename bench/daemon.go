package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ubac/internal/wire"
)

// workspace is where everything the benchmark writes lives: the built
// daemon and one scratch directory per run (daemon logs, WAL data
// dirs, traces), all under <repo>/.bench_build so a checkout stays
// self-contained.
type workspace struct {
	root   string // repo root (holds go.mod)
	build  string // <root>/.bench_build
	runDir string // <build>/run-<pid>, removed by close
	ubacd  string // built daemon binary
}

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(data, []byte("module ubac\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the ubac module (no go.mod with `module ubac` above the working directory)")
		}
		dir = parent
	}
}

// openWorkspace locates the repo and builds cmd/ubacd from the tree.
func openWorkspace() (*workspace, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	ws := &workspace{root: root, build: filepath.Join(root, ".bench_build")}
	// A benchmark that was SIGKILLed could not remove its scratch (a WAL
	// run's is hundreds of megabytes): sweep directories of dead runs.
	if stale, err := filepath.Glob(filepath.Join(ws.build, "run-*")); err == nil {
		for _, dir := range stale {
			pid := strings.TrimPrefix(filepath.Base(dir), "run-")
			if _, err := os.Stat(filepath.Join("/proc", pid)); err != nil {
				os.RemoveAll(dir)
			}
		}
	}
	ws.runDir = filepath.Join(ws.build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(ws.runDir, 0o755); err != nil {
		return nil, err
	}
	ws.ubacd = filepath.Join(ws.build, "ubacd")
	cmd := exec.Command("go", "build", "-o", ws.ubacd, "./cmd/ubacd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		ws.close()
		return nil, fmt.Errorf("bench: building cmd/ubacd: %v\n%s", err, out)
	}
	return ws, nil
}

func (ws *workspace) close() { os.RemoveAll(ws.runDir) }

// freePorts reserves n distinct loopback ports by binding and
// releasing them; the daemon rebinds them a moment later.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// daemon is one running ubacd subprocess.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	logPath  string
	logFile  *os.File
	exited   chan struct{} // closed when Wait returns
}

// startDaemon launches ubacd with the benchmark's fixed configuration
// plus extra flags (data dir, cluster spec).
func (ws *workspace) startDaemon(name string, httpPort, wirePort int, extra ...string) (*daemon, error) {
	d := &daemon{
		httpAddr: fmt.Sprintf("127.0.0.1:%d", httpPort),
		wireAddr: fmt.Sprintf("127.0.0.1:%d", wirePort),
		logPath:  filepath.Join(ws.runDir, name+".log"),
		exited:   make(chan struct{}),
	}
	logFile, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d.logFile = logFile
	args := append([]string{
		"-topology", benchTopology,
		"-alpha", strconv.FormatFloat(benchAlpha, 'f', 2, 64),
		"-listen", d.httpAddr,
		"-wire", d.wireAddr,
	}, extra...)
	d.cmd = exec.Command(ws.ubacd, args...)
	d.cmd.Stdout = logFile
	d.cmd.Stderr = logFile
	dieWithParent(d.cmd)
	if err := d.cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	running.add(d)
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// waitWire dials the wire listener until the handshake and a Ping
// succeed, and returns the connected client.
func (d *daemon) waitWire(timeout time.Duration) (*wire.Client, error) {
	deadline := time.Now().Add(timeout)
	for {
		if !d.alive() {
			return nil, fmt.Errorf("ubacd exited during start-up:\n%s", d.logTail())
		}
		c, err := wire.Dial(wire.ClientOptions{Addr: d.wireAddr, DialTimeout: time.Second})
		if err == nil {
			if err = c.Ping(); err == nil {
				return c, nil
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("ubacd wire listener %s not ready after %v: %v\n%s", d.wireAddr, timeout, err, d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.logPath)
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return string(data)
}

// kill SIGKILLs the process and waits for it.
func (d *daemon) kill() {
	if d.alive() {
		d.cmd.Process.Signal(syscall.SIGKILL)
	}
	<-d.exited
	d.logFile.Close()
	running.remove(d)
}

// running is every daemon this process has started and not yet reaped,
// so that an interrupted benchmark leaves no ubacd behind.
var running daemonSet

type daemonSet struct {
	mu  sync.Mutex
	set map[*daemon]struct{}
}

func (s *daemonSet) add(d *daemon) {
	s.mu.Lock()
	if s.set == nil {
		s.set = make(map[*daemon]struct{})
	}
	s.set[d] = struct{}{}
	s.mu.Unlock()
}

func (s *daemonSet) remove(d *daemon) {
	s.mu.Lock()
	delete(s.set, d)
	s.mu.Unlock()
}

// killAll SIGKILLs and reaps every running daemon.
func (s *daemonSet) killAll() {
	s.mu.Lock()
	ds := make([]*daemon, 0, len(s.set))
	for d := range s.set {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// stop asks for a graceful drain and escalates to SIGKILL after grace.
func (d *daemon) stop(grace time.Duration) {
	if d.alive() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(grace):
		}
	}
	d.kill()
}

// procCPU returns a process's cumulative user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line, 12 and 13 (0-based 11, 12) here.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	const clockTick = 10 * time.Millisecond // USER_HZ is 100 on every Linux ABI
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in bytes.
func procPeakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseInt(fields[1], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

// scrape fetches /metrics and returns every sample line as
// name{labels} → value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := httpClient.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// activeFlows reads the controller's own count of admitted flows
// (/v1/stats). The ubac_active_flows gauge is not used for this: it is
// driven by decision events, recovery replays none, so after a restart
// it reads minus the number of recovered flows torn down since.
func (d *daemon) activeFlows() (int64, error) {
	resp, err := httpClient.Get("http://" + d.httpAddr + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct{ Active int64 }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	return out.Active, nil
}

// headroom asks the daemon how many more benchClass flows a pair can
// take.
func (d *daemon) headroom(src, dst int) (int, error) {
	url := fmt.Sprintf("http://%s/v1/headroom?class=%s&src=%d&dst=%d", d.httpAddr, benchClass, src, dst)
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("headroom: HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Headroom int `json:"headroom"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, err
	}
	return out.Headroom, nil
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `snoopy-server -data` partition process.
type server struct {
	cmd       *exec.Cmd
	addr      string // attested RPC endpoint
	telemetry string // /metrics endpoint host:port ("" without telemetry)
	exited    chan struct{}
}

// startServer launches a durable partition server on a loopback port with
// GOMAXPROCS=1 and waits until it listens.
func startServer(bin, dataDir, platformHex string, block int, telemetry bool) (*server, error) {
	args := []string{
		"-listen", "127.0.0.1:0",
		"-block", strconv.Itoa(block),
		"-data", dataDir,
		"-platform", platformHex,
	}
	if telemetry {
		args = append(args, "-telemetry-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// A server must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "telemetry on http://"); ok {
				s.telemetry, _, _ = strings.Cut(a, " ")
			}
			if a, ok := strings.CutPrefix(line, "subORAM serving on "); ok && !announced {
				s.addr, _, _ = strings.Cut(a, " ")
				announced = true
				ready <- nil
			}
		}
		if !announced {
			ready <- fmt.Errorf("server on %s exited before listening", dataDir)
		}
		// Reap the process once its stdout closes.
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case err := <-ready:
		if err != nil {
			<-s.exited
			return nil, err
		}
		return s, nil
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("server on %s did not listen within 30s", dataDir)
	}
}

// kill SIGKILLs the server and waits until it has exited. It returns the
// process's peak resident set in bytes, read just before the kill.
func (s *server) kill() int64 {
	hwm := vmHWM(s.cmd.Process.Pid)
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
	return hwm
}

// vmHWM reads a process's peak resident set size (VmHWM) in bytes; 0 if
// unavailable.
func vmHWM(pid int) int64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// scrape reads a server's /metrics dump into counters and histogram
// (count, sum) pairs.
func scrape(client *http.Client, addr string) (counters map[string]uint64, hists map[string][2]int64, err error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	counters = map[string]uint64{}
	hists = map[string][2]int64{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		f := strings.Fields(string(line))
		switch {
		case len(f) == 3 && f[0] == "counter":
			v, _ := strconv.ParseUint(f[2], 10, 64)
			counters[f[1]] = v
		case len(f) == 6 && f[0] == "hist" && f[2] == "count" && f[4] == "sum_ns":
			n, _ := strconv.ParseInt(f[3], 10, 64)
			sum, _ := strconv.ParseInt(f[5], 10, 64)
			hists[f[1]] = [2]int64{n, sum}
		}
	}
	return counters, hists, nil
}

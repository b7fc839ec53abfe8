package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// daemon is one cltjd process started by the harness.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	done   chan struct{} // closed once the process has been reaped
	exited error
}

// freeAddr picks an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon launches bin with args on a fresh loopback address,
// pinned to gomaxprocs, logging to logPath.
func startDaemon(bin string, args []string, gomaxprocs int, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the harness die without stopping it, the daemon dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		d.exited = cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// waitReady polls GET /healthz until it answers 200, the process
// exits, or ctx ends.
func (d *daemon) waitReady(ctx context.Context, hc *http.Client) error {
	url := "http://" + d.addr + "/healthz"
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("cltjd on %s exited before ready: %v", d.addr, d.exited)
		case <-ctx.Done():
			return fmt.Errorf("cltjd on %s not ready: %w", d.addr, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop shuts the daemon down gracefully (SIGTERM), escalating to
// SIGKILL after grace, and waits until it has been reaped.
func (d *daemon) stop(grace time.Duration) {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exiting: the wait below covers it
	select {
	case <-d.done:
	case <-time.After(grace):
		d.kill()
	}
}

// kill sends SIGKILL and waits until the process has been reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.done
}

// cpuTime is the process's user+sys CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
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
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS is the process's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// fleet is the set of daemons serving one workload; entry is the one
// the load generator talks to (the coordinator, when there is one).
type fleet struct {
	procs []*daemon
	entry *daemon
}

func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop(10 * time.Second)
	}
}

func (f *fleet) cpuTime() (time.Duration, error) {
	var sum time.Duration
	for _, d := range f.procs {
		t, err := d.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

func (f *fleet) peakRSS() (int64, error) {
	var sum int64
	for _, d := range f.procs {
		b, err := d.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat: the share of time a virtual machine's CPUs waited for the
// host, which the report prints beside every run (0, 0 if unreadable).
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

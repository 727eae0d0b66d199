package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs owns every process the benchmark starts. killAll stops and
// reaps all of them; run calls it on every exit path, the signal path
// included, so no run leaks a server or a port into the next.
type procs struct {
	mu     sync.Mutex
	live   []*proc
	logDir string
}

// proc is one started child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has reaped the process
	err  error         // Wait's result, valid after done
	log  *os.File
}

// start launches bin with args, logging its output under logDir. The
// child gets SIGKILL if the benchmark dies without cleaning up.
func (ps *procs) start(name, bin string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(ps.logDir, name+".log"))
	if err != nil {
		return nil, fmt.Errorf("log for %s: %w", name, err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.live = append(ps.live, p)
	ps.mu.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop kills the process and waits until it is reaped.
func (p *proc) stop() {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	}
	<-p.done
	p.log.Close()
}

// killAll stops and reaps every process still owned.
func (ps *procs) killAll() {
	ps.mu.Lock()
	live := ps.live
	ps.live = nil
	ps.mu.Unlock()
	for _, p := range live {
		p.stop()
	}
}

// release stops p and forgets it.
func (ps *procs) release(p *proc) {
	p.stop()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, q := range ps.live {
		if q == p {
			ps.live = append(ps.live[:i], ps.live[i+1:]...)
			break
		}
	}
}

// freeAddr returns a localhost address whose port was free a moment
// ago. Another process can take it before the child binds; callers
// retry on a child that exits early.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// usage is a process's CPU time and peak resident set at one instant.
type usage struct {
	cpu   time.Duration // user + system
	hwmKB int64         // VmHWM
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// readUsage reads /proc/<pid>/stat and /proc/<pid>/status.
func readUsage(pid int) (usage, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return usage{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return usage{}, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return usage{}, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return usage{}, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	u := usage{cpu: time.Duration(ut+st) * clockTick}
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return usage{}, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) > 0 {
				u.hwmKB, _ = strconv.ParseInt(fs[0], 10, 64) // an unreadable value reports 0 MB, never a failure
			}
		}
	}
	return u, sc.Err()
}

// hostTicks reads the machine's CPU time from the first line of
// /proc/stat: the total over all states and the steal share, the time
// a hypervisor ran other guests on this machine's CPUs.
func hostTicks() (total, steal int64, err error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("/proc/stat: no cpu line with a steal field")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// selfUsage is readUsage for the benchmark process, with CPU time from
// getrusage, whose resolution is finer than /proc's clock ticks.
func selfUsage() (usage, error) {
	u, err := readUsage(os.Getpid())
	if err != nil {
		return usage{}, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return u, nil
}

// sumUsage adds the usage of several processes: total CPU, and the sum
// of their peak resident sets (the deployment's footprint).
func sumUsage(ps []*proc) (usage, error) {
	var total usage
	for _, p := range ps {
		u, err := readUsage(p.pid())
		if err != nil {
			return usage{}, fmt.Errorf("%s: %w", p.name, err)
		}
		total.cpu += u.cpu
		total.hwmKB += u.hwmKB
	}
	return total, nil
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d) //ripslint:allow sleep the benchmark's own pacing and polling waits, outside any run's schedule
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

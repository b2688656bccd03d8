package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// execRun runs one batch binary to completion and reports its standard
// output, wall time and peak resident set (MiB).
func execRun(bin string, args ...string) (out []byte, wall time.Duration, rssMB float64, err error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	wall = time.Since(start)
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return nil, wall, rssMB, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, tail(stderr.String()))
	}
	return stdout.Bytes(), wall, rssMB, nil
}

func tail(s string) string {
	if len(s) > 400 {
		return "..." + s[len(s)-400:]
	}
	return s
}

// daemon is a running dlserve process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	done   chan error
	exited bool
}

// startDaemon launches dlserve on an ephemeral loopback port and returns
// once it has printed its bound address.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "dlserve on http://"); ok && !sent {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
				sent = true
			}
		}
		io.Copy(io.Discard, stdout)
		if !sent {
			close(addrc)
		}
		d.done <- cmd.Wait()
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			return nil, fmt.Errorf("dlserve exited before binding: %v", <-d.done)
		}
		d.addr = addr
		return d, nil
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("dlserve did not bind within 30s")
	}
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) while it runs.
func (d *daemon) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that does not exit within 15 s is killed and reported.
func (d *daemon) stop() error {
	if d.exited {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.exited = true
		if err != nil {
			return fmt.Errorf("dlserve drain: %w", err)
		}
		return nil
	case <-time.After(15 * time.Second):
		d.kill()
		return fmt.Errorf("dlserve did not drain within 15s")
	}
}

// kill ends the daemon at once, unless it already exited; deferred by
// every caller so that no error path leaves it running.
func (d *daemon) kill() {
	if d.exited {
		return
	}
	d.cmd.Process.Kill()
	<-d.done
	d.exited = true
}

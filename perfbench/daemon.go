package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"nvrel/internal/obs"
)

// daemon is one `nvrel serve` subprocess on an ephemeral port.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	out  *watchWriter
	done chan error
}

// watchWriter collects the daemon's output and hands over the URL from
// its "listening on" line.
type watchWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	url  chan string
	sent bool
}

func (w *watchWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		s := w.buf.String()
		if i := strings.Index(s, "listening on "); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				w.url <- strings.TrimSpace(s[i+len("listening on ") : i+j])
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *watchWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon spawns `nvrel serve` and waits until /readyz answers 200,
// which happens after the daemon's warm-up solve. It returns the time
// from spawn to ready.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	w := &watchWriter{url: make(chan string, 1)}
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	cmd.Stdout, cmd.Stderr = w, w
	// The daemon must not outlive the benchmark if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, out: w, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()

	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	select {
	case d.url = <-w.url:
	case err := <-d.done:
		return nil, 0, fmt.Errorf("daemon exited before listening (%v): %s", err, w.String())
	case <-deadline.C:
		d.kill()
		return nil, 0, fmt.Errorf("daemon printed no address in 60s: %s", w.String())
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ready := time.Since(t0)
				client.CloseIdleConnections()
				return d, ready, nil
			}
		}
		select {
		case err := <-d.done:
			return nil, 0, fmt.Errorf("daemon exited before ready (%v): %s", err, w.String())
		case <-deadline.C:
			d.kill()
			return nil, 0, fmt.Errorf("daemon not ready in 60s: %s", w.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM and waits for the daemon to drain and exit; after
// 10 s it kills it.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("daemon exit: %w: %s", err, d.out.String())
		}
		return nil
	case <-time.After(10 * time.Second):
		d.kill()
		return errors.New("daemon did not exit within 10s of SIGTERM")
	}
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
}

// counters fetches the daemon's obs counters from /metrics.json.
func (d *daemon) counters() (map[string]int64, error) {
	resp, err := http.Get(d.url + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return doc.Metrics.Counters, nil
}

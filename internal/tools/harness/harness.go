// Package harness runs the shipped mpcgraphd binary for the daemon
// gates (internal/tools/servicesmoke, internal/tools/chaossmoke): it
// boots it on an ephemeral port, reads the address from its "listening
// on" line, and drives it through the typed internal/client.
package harness

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"mpcgraph/internal/client"
	"mpcgraph/internal/service"
)

// Daemon is one running mpcgraphd process.
type Daemon struct {
	*client.Client
	cmd *exec.Cmd
}

// Start boots bin on 127.0.0.1:0 with the extra environment entries
// and flags, and returns once the daemon has printed its address.
// Defer Reap right after a successful Start.
func Start(bin string, env []string, args ...string) (*Daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The daemon's first stdout line carries the bound address.
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if _, base, ok := strings.Cut(sc.Text(), "listening on "); ok {
			go io.Copy(io.Discard, stdout) // keep the pipe drained
			return &Daemon{Client: client.New(strings.TrimSpace(base)), cmd: cmd}, nil
		}
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	return nil, fmt.Errorf("daemon never printed its address")
}

// Drain sends SIGTERM and requires a zero exit within 60s.
func (d *Daemon) Drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("non-zero exit after SIGTERM: %v", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("no exit within 60s of SIGTERM")
	}
}

// Kill SIGKILLs the daemon — no drain, no flush — and reaps it.
func (d *Daemon) Kill() error {
	if err := d.cmd.Process.Kill(); err != nil {
		return err
	}
	_ = d.cmd.Wait() // always "signal: killed"
	return nil
}

// Reap kills the daemon if a failed phase left it running.
func (d *Daemon) Reap() {
	if d.cmd.ProcessState == nil {
		_ = d.Kill()
	}
}

// Metric reads one series from /metrics; kv are label key/value pairs.
func (d *Daemon) Metric(name string, kv ...string) (float64, error) {
	exp, err := d.Metrics(context.Background())
	if err != nil {
		return 0, err
	}
	v, ok := exp.Value(name, kv...)
	if !ok {
		return 0, fmt.Errorf("no series %s%q in /metrics", name, kv)
	}
	return v, nil
}

// Submit posts one job without retrying; a rejection surfaces as a
// *client.Error.
func (d *Daemon) Submit(req *service.JobRequest) (*service.JobView, error) {
	return d.SubmitJob(context.Background(), req, client.Retry{Op: "submit"})
}

// Await polls job id until it is terminal and requires it done within
// timeout.
func (d *Daemon) Await(id string, timeout time.Duration) (*service.JobView, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	view, err := d.WaitJob(ctx, id, 0)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return nil, fmt.Errorf("job %s did not finish within %v", id, timeout)
	case err != nil:
		return nil, err
	case view.State != service.StateDone:
		return nil, fmt.Errorf("job %s %s: %s", id, view.State, view.Error)
	}
	return view, nil
}

// Solve submits req and awaits it done within timeout.
func (d *Daemon) Solve(req *service.JobRequest, timeout time.Duration) (*service.JobView, error) {
	view, err := d.Submit(req)
	if err != nil {
		return nil, err
	}
	return d.Await(view.ID, timeout)
}

package main

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonArg makes the test binary run the daemon itself, so a test can
// signal a real process and read its exit status.
const daemonArg = "mpcgraphd-test-daemon"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == daemonArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDrainClosesRequestlessConnection opens a raw TCP connection that
// never sends a byte, then signals the daemon. net/http's Shutdown
// counts such a connection as busy for its first 5 s, as long as the
// daemon's Shutdown budget, so the drain must close it itself: it must
// exit 0, and well before that 5 s mark.
func TestDrainClosesRequestlessConnection(t *testing.T) {
	cmd := exec.Command(os.Args[0], daemonArg, "-addr", "127.0.0.1:0", "-workers", "1", "-log-level", "error")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	// kill stops the daemon and waits for it, so stderr is complete.
	kill := func() string {
		_ = cmd.Process.Kill()
		<-done
		return stderr.String()
	}
	if err != nil {
		t.Fatalf("daemon printed no address: %v (stderr: %s)", err, kill())
	}
	addr := strings.TrimPrefix(strings.TrimSpace(line), "mpcgraphd listening on http://")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v (stderr: %s)", addr, err, kill())
	}
	defer conn.Close()
	// Give the server time to accept the connection before the signal.
	time.Sleep(200 * time.Millisecond)

	start := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v (stderr: %s)", err, kill())
	}
	select {
	case err := <-done:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			t.Fatalf("drain exited %d (stderr: %s)", exit.ExitCode(), stderr.String())
		} else if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit within 30s of SIGTERM (stderr: %s)", kill())
	}
	if took := time.Since(start); took > 4*time.Second {
		t.Errorf("drain took %v; the requestless connection held it up", took)
	}
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is a spawned dramhit-server in its own process group.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once Wait returned
}

// running lists the servers to kill when the run ends for any reason.
var running struct {
	sync.Mutex
	list []*server
}

// buildServer compiles cmd/dramhit-server into dir, once per process. It
// must run from the benchmark module's directory (the build goes through
// that module's replace of the repository).
func buildServer(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "dramhit-server"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "dramhit/cmd/dramhit-server").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building dramhit-server: %v\n%s", err, out)
	}
	return bin, nil
}

// startServer spawns bin with args and waits for the line that announces
// the listener of the given protocol ("resp" or "memcached"), which carries
// the port the kernel chose.
func startServer(bin, proto string, args ...string) (*server, error) {
	cmd := exec.Command(bin, args...)
	// Its own process group, so one signal reaches everything it may fork;
	// Pdeathsig covers a harness that dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	running.Lock()
	running.list = append(running.list, s)
	running.Unlock()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// "resp listening on 127.0.0.1:41233 (backend=dramhit)"
			if rest, ok := strings.CutPrefix(sc.Text(), proto+" listening on "); ok {
				addr <- strings.Fields(rest)[0]
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-addr:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not announce a %s listener", bin, proto)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// alive reports whether the server process is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// stop kills the server's process group and waits until it is gone.
func (s *server) stop() {
	_ = syscall.Kill(-s.pid(), syscall.SIGKILL) // the group; it may be gone already
	<-s.exited
}

// killServers stops every server this process started.
func killServers() {
	running.Lock()
	list := running.list
	running.list = nil
	running.Unlock()
	for _, s := range list {
		s.stop()
	}
}

package gveleiden_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// End-to-end integration tests for the command-line tools: build each
// binary once, then drive the full generate → detect → analyze pipeline
// through files, the way a user would.

var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

func buildCLIs(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	cliOnce.Do(func() {
		cliDir, cliErr = os.MkdirTemp("", "gve-cli")
		if cliErr != nil {
			return
		}
		for _, tool := range []string{"gveleiden", "gveconvert", "communities", "benchall", "gveserve"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(cliDir, tool), "./cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				cliErr = fmt.Errorf("building %s: %v\n%s", tool, err, out)
				return
			}
		}
	})
	if cliErr != nil {
		t.Fatalf("building CLIs: %v", cliErr)
	}
	return cliDir
}

func runCLI(t *testing.T, dir, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	bin := buildCLIs(t)
	work := t.TempDir()
	graphPath := filepath.Join(work, "g.mtx")
	membPath := filepath.Join(work, "memb.txt")
	dotPath := filepath.Join(work, "g.dot")

	// 1. Generate a graph file.
	out := runCLI(t, bin, "gveconvert", "-gen", "web", "-n", "3000", "-o", graphPath)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("gveconvert output: %s", out)
	}

	// 2. Detect communities, write membership + DOT.
	out = runCLI(t, bin, "gveleiden", "-i", graphPath, "-o", membPath,
		"-export-dot", dotPath, "-v")
	for _, want := range []string{"communities", "modularity", "disconnected communities: 0", "phase split"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gveleiden output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(dotPath); err != nil {
		t.Fatal("DOT file not written")
	}

	// 3. Analyze the saved membership.
	out = runCLI(t, bin, "communities", "-g", graphPath, "-m", membPath, "-top", "3")
	for _, want := range []string{"modularity:", "coverage:", "disconnected:    0", "largest communities"} {
		if !strings.Contains(out, want) {
			t.Fatalf("communities output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIDeterministicFlagStable(t *testing.T) {
	bin := buildCLIs(t)
	work := t.TempDir()
	graphPath := filepath.Join(work, "g.mtx")
	runCLI(t, bin, "gveconvert", "-gen", "social", "-n", "2000", "-o", graphPath)

	m1 := filepath.Join(work, "m1.txt")
	m2 := filepath.Join(work, "m2.txt")
	runCLI(t, bin, "gveleiden", "-i", graphPath, "-deterministic", "-threads", "1", "-o", m1)
	runCLI(t, bin, "gveleiden", "-i", graphPath, "-deterministic", "-threads", "4", "-o", m2)
	b1, err := os.ReadFile(m1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(m2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("deterministic CLI runs differ across thread counts")
	}
}

func TestCLIBenchallSelectedExperiment(t *testing.T) {
	bin := buildCLIs(t)
	work := t.TempDir()
	report := filepath.Join(work, "report.txt")
	csvDir := filepath.Join(work, "csv")
	out := runCLI(t, bin, "benchall", "-scale", "0.05", "-repeat", "1",
		"-exp", "table2", "-o", report, "-csv", csvDir)
	if !strings.Contains(out, "Table 2") {
		t.Fatalf("benchall output:\n%s", out)
	}
	if _, err := os.Stat(report); err != nil {
		t.Fatal("report file not written")
	}
	if _, err := os.Stat(filepath.Join(csvDir, "table2.csv")); err != nil {
		t.Fatal("CSV not written")
	}
}

// lockedBuffer lets the test poll a child process's output while the
// exec copier goroutine is still appending to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCLIServeInterrupt drives the long-running-service shape as a
// black box: -serve with an unbounded -linger, interrupted by SIGINT.
// The process must exit 130 with its -trace artifact flushed and
// parseable — a killed run still yields its observability output.
func TestCLIServeInterrupt(t *testing.T) {
	bin := buildCLIs(t)
	work := t.TempDir()
	tracePath := filepath.Join(work, "trace.json")

	cmd := exec.Command(filepath.Join(bin, "gveleiden"),
		"-gen", "er", "-n", "2000", "-threads", "2",
		"-serve", "127.0.0.1:0", "-linger", "-1s",
		"-trace", tracePath, "-check-disconnected=false")
	var stdout, stderr lockedBuffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait until the run is done and the process is lingering on the
	// server (the "runs complete" line prints after all artifacts).
	deadline := time.Now().Add(15 * time.Second)
	for !strings.Contains(stdout.String(), "runs complete") {
		if time.Now().After(deadline) {
			t.Fatalf("no 'runs complete' line:\nstdout:\n%s\nstderr:\n%s",
				stdout.String(), stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !regexp.MustCompile(`serving on http://`).MatchString(stdout.String()) {
		t.Fatalf("no serve line:\n%s", stdout.String())
	}

	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("exit after SIGINT = %v, want status 130\nstderr:\n%s", err, stderr.String())
	}

	// The tracer was flushed by the run loop (and the signal handler's
	// Close is an idempotent no-op after that): the file must hold a
	// complete JSON trace, not a truncated one.
	data, rerr := os.ReadFile(tracePath)
	if rerr != nil {
		t.Fatalf("trace not written: %v", rerr)
	}
	if !strings.Contains(string(data), `"traceEvents"`) || !strings.HasSuffix(strings.TrimSpace(string(data)), "}") {
		t.Fatalf("trace incomplete (%d bytes): %.200s", len(data), data)
	}
}

func TestCLIErrorPaths(t *testing.T) {
	bin := buildCLIs(t)
	// Missing input must exit non-zero with a diagnostic.
	cmd := exec.Command(filepath.Join(bin, "gveleiden"))
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("gveleiden with no input must fail")
	}
	if !strings.Contains(string(out), "need -i FILE or -gen NAME") {
		t.Fatalf("unhelpful error: %s", out)
	}
	cmd = exec.Command(filepath.Join(bin, "communities"))
	if err := cmd.Run(); err == nil {
		t.Fatal("communities with no graph must fail")
	}
}

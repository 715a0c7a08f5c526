package e2e

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Bins are the program's binaries, built from the checkout.
type Bins struct {
	Corpusgen, Inspired string
}

// BuildBins compiles cmd/corpusgen and cmd/inspired into dir. It must run
// from the root of the checkout.
func BuildBins(ctx context.Context, dir string) (*Bins, error) {
	if err := GoBuild(ctx, dir, "./cmd/corpusgen", "./cmd/inspired"); err != nil {
		return nil, err
	}
	return &Bins{
		Corpusgen: filepath.Join(dir, "corpusgen"+ExeSuffix),
		Inspired:  filepath.Join(dir, "inspired"+ExeSuffix),
	}, nil
}

// GoBuild compiles main packages into dir.
func GoBuild(ctx context.Context, dir string, pkgs ...string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out, err := exec.CommandContext(ctx, "go", append([]string{"build", "-o", dir + string(filepath.Separator)}, pkgs...)...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build %v: %w\n%s", pkgs, err, out)
	}
	return nil
}

// Daemon is a running inspired process serving HTTP on loopback.
type Daemon struct {
	Base   string // http://127.0.0.1:port
	cmd    *exec.Cmd
	stderr bytes.Buffer
	exited chan struct{}
}

// StartDaemon starts inspired on a free loopback port with the given flags
// and returns once probe (a path such as /v1/stats) first answers 200.
func StartDaemon(ctx context.Context, bin string, flags []string, probe string) (*Daemon, error) {
	// The port is found by binding :0 and closing it again, so another
	// process can take it before the daemon does; then the daemon exits with
	// a bind error and the next attempt draws another port.
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *Daemon
		if d, err = startDaemonOnce(ctx, bin, flags, probe); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func startDaemonOnce(ctx context.Context, bin string, flags []string, probe string) (*Daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &Daemon{Base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.CommandContext(ctx, bin, append(flags, "-http", addr)...)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed daemon carries no news
		close(d.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("inspired exited before answering: %s", d.stderr.String())
		default:
		}
		resp, err := http.Get(d.Base + probe)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	return nil, fmt.Errorf("inspired did not answer %s within 60s: %s", probe, d.stderr.String())
}

// PID returns the daemon's process ID.
func (d *Daemon) PID() int { return d.cmd.Process.Pid }

// Stderr returns what the daemon wrote to standard error so far. Call it
// after Stop, or accept a torn read.
func (d *Daemon) Stderr() string { return d.stderr.String() }

// Stop kills the daemon and waits until it has exited.
func (d *Daemon) Stop() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

// Deployment is one finished set-up: a generated corpus, its persisted
// store, and a daemon serving it.
type Deployment struct {
	CorpusDir  string
	StoreDir   string
	StorePath  string
	Daemon     *Daemon
	SetupS     float64 // the whole set-up, wall
	GenerateS  float64 // corpusgen process
	PipelineS  float64 // indexing process: pipeline, snapshot, save
	StoreBytes int64   // persisted set
}

// daemonFlags are the serving flags of a workload: defaults, no knob tuned.
func daemonFlags(store string, wl *Workload) []string {
	flags := []string{"-store", store}
	if wl.Replicas > 1 {
		flags = append(flags, "-replicas", strconv.Itoa(wl.Replicas))
	}
	return flags
}

// SetUp generates the suite's corpus under dir, indexes and persists it
// with the workload's deployment shape, and starts a daemon on the store.
func SetUp(ctx context.Context, bins *Bins, s *Suite, wl *Workload, dir string) (*Deployment, error) {
	d := &Deployment{
		CorpusDir: filepath.Join(dir, "corpus"),
		StoreDir:  filepath.Join(dir, "store"),
	}
	d.StorePath = filepath.Join(d.StoreDir, "run.store")
	if err := os.MkdirAll(d.StoreDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	c := s.Corpus
	if err := run(ctx, bins.Corpusgen, nil, "-out", d.CorpusDir, "-seed", strconv.FormatInt(c.Seed, 10),
		"-bytes", strconv.FormatInt(c.Bytes, 10), "-sources", strconv.Itoa(c.Sources),
		"-vocab", strconv.Itoa(c.Vocab), "-topics", strconv.Itoa(c.Topics)); err != nil {
		return nil, err
	}
	d.GenerateS = time.Since(start).Seconds()

	sources, err := ReadSources(d.CorpusDir)
	if err != nil {
		return nil, err
	}
	var docs int64
	for _, src := range sources {
		docs += countRecords(src)
	}
	metaPath := filepath.Join(dir, "meta.tsv")
	if err := writeMeta(metaPath, s.Meta, docs); err != nil {
		return nil, err
	}

	args := []string{"-in", d.CorpusDir, "-p", strconv.Itoa(c.P), "-meta", metaPath, "-save-store", d.StorePath, "-stdin"}
	if wl.Shards > 1 {
		args = append(args, "-shards", strconv.Itoa(wl.Shards))
	}
	t := time.Now()
	// Empty stdin ends the line protocol at once: index, save, exit 0.
	if err := run(ctx, bins.Inspired, bytes.NewReader(nil), args...); err != nil {
		return nil, err
	}
	d.PipelineS = time.Since(t).Seconds()

	if d.Daemon, err = StartDaemon(ctx, bins.Inspired, daemonFlags(d.StorePath, wl), "/v1/stats"); err != nil {
		return nil, err
	}
	d.SetupS = time.Since(start).Seconds()

	err = filepath.WalkDir(d.StoreDir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		d.StoreBytes += info.Size()
		return err
	})
	if err != nil {
		d.Daemon.Stop()
		return nil, err
	}
	return d, nil
}

// Restart replaces the deployment's daemon and returns the time from exec
// to the first answered query.
func (d *Deployment) Restart(ctx context.Context, bins *Bins, wl *Workload, probe string) (time.Duration, error) {
	d.Daemon.Stop()
	t := time.Now()
	var err error
	d.Daemon, err = StartDaemon(ctx, bins.Inspired, daemonFlags(d.StorePath, wl), probe)
	return time.Since(t), err
}

func run(ctx context.Context, bin string, stdin io.Reader, args ...string) error {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdin = stdin
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %v: %w\n%s", filepath.Base(bin), args, err, out)
	}
	return nil
}

// ReadSources reads the corpus files of a directory in name order, the
// order the indexing run reads them in.
func ReadSources(dir string) ([][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var out [][]byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}

func countRecords(src []byte) int64 {
	n := int64(bytes.Count(src, []byte("\nPMID- ")))
	if bytes.HasPrefix(src, []byte("PMID- ")) {
		n++
	}
	return n
}

// writeMeta writes the -meta file: doc<TAB>ts<TAB>facet,facet per document.
func writeMeta(path string, m MetaSpec, docs int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for d := int64(0); d < docs; d++ {
		fmt.Fprintf(w, "%d\t%d\t", d, m.TSBase+d*m.TSStep)
		for i, fc := range m.Facets {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(fc.Value(d))
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ExeSuffix is what go build appends to a binary's name.
var ExeSuffix = map[bool]string{true: ".exe"}[runtime.GOOS == "windows"]

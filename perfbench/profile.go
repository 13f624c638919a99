package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profileDir holds the traced run's CPU profile while `go tool pprof` reads
// it; it is the build directory run.sh uses, under the working directory.
const profileDir = ".bench_build"

// cpuProfile records a CPU profile to a file under profileDir.
type cpuProfile struct{ f *os.File }

func startCPUProfile() (*cpuProfile, error) {
	if err := os.MkdirAll(profileDir, 0o755); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	f, err := os.CreateTemp(profileDir, "cpu-*.pprof")
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return &cpuProfile{f: f}, nil
}

// flat ends the profile and returns each function's flat share of the
// profiled CPU time, in percent, as `go tool pprof -top` prints it: inlined
// frames are credited to the innermost function.
func (p *cpuProfile) flat() (map[string]float64, error) {
	pprof.StopCPUProfile()
	defer os.Remove(p.f.Name())
	if err := p.f.Close(); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-symbolize=none", p.f.Name())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop reads the table of `go tool pprof -top`: after the header line
// "flat flat% sum% cum cum%", each line holds those five columns and the
// function's name.
func parseTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) == 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			return nil, fmt.Errorf("go tool pprof: unexpected line %q", sc.Text())
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: flat%% in %q: %w", sc.Text(), err)
		}
		flat[strings.Join(fields[5:], " ")] += pct
	}
	if !inTable {
		return nil, fmt.Errorf("go tool pprof: no table in its output")
	}
	return flat, sc.Err()
}

// stop ends the profile and returns the flat CPU share, in percent, of
// each package in cpuPackages.
func (p *cpuProfile) stop() (map[string]float64, error) {
	flat, err := p.flat()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(cpuPackages))
	for _, pkg := range cpuPackages {
		out[pkg] = 0
	}
	for fn, pct := range flat {
		if pkg := layerOf(fn); pkg != "" {
			if _, ok := out[pkg]; ok {
				out[pkg] += pct
			}
		}
	}
	return out, nil
}

// layerOf maps a function's symbol name to its cpuPackages entry:
// iceclave/internal/<pkg> to <pkg>, runtime to runtime, sync (and the
// internal/sync package that implements Go's mutexes) to sync, and
// anything else to "".
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "runtime":
		return "runtime"
	case pkg == "sync" || pkg == "internal/sync":
		return "sync"
	case strings.HasPrefix(pkg, "iceclave/internal/"):
		return strings.TrimPrefix(pkg, "iceclave/internal/")
	}
	return ""
}

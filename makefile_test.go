package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// makeTestFlag matches one -run or -bench selector of a `go test` line
// in the Makefile, quoted or not, with a space or an equals sign.
var makeTestFlag = regexp.MustCompile(`-(run|bench)[ =]('[^']*'|\S+)`)

// testFunc matches the declaration of a test, fuzz test, example or
// benchmark function and captures its name.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example|Benchmark)\w*)\(`)

// TestMakefileSelectorsNameTests: `go test -run X` passes silently when
// nothing matches X, so a Makefile gate whose test was renamed or
// deleted would keep passing while testing nothing. Each alternative of
// every -run and -bench selector must match, as `go test` matches it, a
// function declared in a _test.go file of one of that line's package
// directories: a test, fuzz test or example for -run, a benchmark for
// -bench. Only '^$' (run nothing) is exempt.
func TestMakefileSelectorsNameTests(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != "$(GO)" || fields[1] != "test" {
			continue
		}
		var dirs []string
		for _, f := range fields {
			if f == "." || strings.HasPrefix(f, "./") {
				dirs = append(dirs, f)
			}
		}
		for _, m := range makeTestFlag.FindAllStringSubmatch(line, -1) {
			pattern := strings.ReplaceAll(strings.Trim(m[2], "'"), "$$", "$")
			if pattern == "^$" {
				continue
			}
			funcs := declaredTests(t, dirs, m[1] == "bench")
			for _, alt := range strings.Split(pattern, "|") {
				checked++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile:%d: -%s alternative %q: %v", i+1, m[1], alt, err)
					continue
				}
				found := false
				for _, name := range funcs {
					found = found || re.MatchString(name)
				}
				if !found {
					t.Errorf("Makefile:%d: -%s alternative %q matches nothing declared in %v", i+1, m[1], alt, dirs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -bench selector in the Makefile")
	}
}

// declaredTests returns the benchmarks (bench) or the tests, fuzz tests
// and examples (!bench) declared in the _test.go files directly in dirs.
func declaredTests(t *testing.T, dirs []string, bench bool) []string {
	t.Helper()
	var out []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				if name := string(m[1]); strings.HasPrefix(name, "Benchmark") == bench {
					out = append(out, name)
				}
			}
		}
	}
	return out
}

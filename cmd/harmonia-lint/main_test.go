package main

import (
	"io"
	"os"
	"testing"
)

// TestArgumentsAreRefused: harmonia-lint takes no flags or arguments, so
// an invocation that passes any, such as the former -werror ./..., fails
// loudly with the usage line and exit status 2 instead of being ignored.
// run returns before loading a package; TestRepoIsLintClean
// (internal/lint) is what lints the module.
func TestArgumentsAreRefused(t *testing.T) {
	for _, args := range [][]string{{"-werror", "./..."}, {"./..."}, {"-list"}} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = w
		code := run(args)
		os.Stderr = stderr
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if code != 2 || string(out) != usage+"\n" {
			t.Errorf("run(%q) = %d, stderr %q; want 2 and the usage line", args, code, out)
		}
	}
}

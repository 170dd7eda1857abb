// Command tracecheck structurally validates a Chrome trace-event JSON
// file produced by the execution tracer (cmd/uvmsim -trace, or
// cmd/experiments -trace-dir, which sets exp.Runner.TraceDir).
// It is the CI smoke for the telemetry export; the checks themselves
// live in telemetry.Check so any trace consumer can run them. Exit
// status 0 means Perfetto will load the file and the spans mean what
// DESIGN.md §12 says they mean.
//
// Usage: tracecheck file.json [file2.json ...]
package main

import (
	"fmt"
	"os"

	"uvmsim/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck file.json [file2.json ...]")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		buf, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
		st, err := telemetry.Check(buf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok — %s\n", path, st)
	}
}

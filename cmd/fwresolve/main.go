// Command fwresolve runs the resolution phase (Section 6) on two policy
// files: it lists the functional discrepancies, applies the decisions the
// teams agreed on, and emits the final firewall via either generation
// method.
//
// Usage:
//
//	fwresolve [-schema name] a.fw b.fw                      # list discrepancies
//	fwresolve a.fw b.fw -decide 1=discard,2=accept,3=discard \
//	          [-method fdd|a|b] > final.fw                  # generate
//
// -method fdd is the paper's Method 1 (corrected FDD -> generated rules);
// -method a / b is Method 2 starting from the respective original. The
// output is verified against the resolved semantics before being printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"diversefw/internal/cli"
	"diversefw/internal/engine"
	"diversefw/internal/resolve"
	"diversefw/internal/rule"
	"diversefw/internal/textio"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("fwresolve", flag.ContinueOnError)
	schemaName := fs.String("schema", "five", "packet schema: "+cli.SchemaNames())
	decide := fs.String("decide", "", "comma-separated <row>=<decision> resolutions, e.g. 1=discard,2=accept")
	method := fs.String("method", "fdd", "generation method: fdd (Method 1), a or b (Method 2)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fwresolve [-schema name] [-decide 1=dec,...] [-method fdd|a|b] a.fw b.fw")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	schema, err := cli.Schema(*schemaName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwresolve:", err)
		return 2
	}
	pa, err := cli.LoadPolicy(schema, fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwresolve:", err)
		return 2
	}
	pb, err := cli.LoadPolicy(schema, fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwresolve:", err)
		return 2
	}

	// The plan comes from the engine's report, as /v1/resolve builds it,
	// so the CLI and the server number discrepancy rows identically.
	report, _, err := engine.New(engine.Config{}).DiffPolicies(context.Background(), pa, pb)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwresolve:", err)
		return 2
	}
	plan := resolve.NewPlanFromReport(pa, pb, report)

	if *decide == "" {
		// Listing mode: print the discrepancy table for the teams to
		// discuss, numbered the way -decide expects.
		if err := textio.WriteDiscrepancyTable(os.Stderr, schema, plan.Report.Discrepancies,
			fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "fwresolve:", err)
			return 2
		}
		if len(plan.Report.Discrepancies) > 0 {
			fmt.Fprintln(os.Stderr, "\nresolve with: fwresolve -decide 1=<dec>,... -method fdd|a|b", fs.Arg(0), fs.Arg(1))
			return 1
		}
		return 0
	}

	for _, part := range strings.Split(*decide, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			fmt.Fprintf(os.Stderr, "fwresolve: bad -decide entry %q\n", part)
			return 2
		}
		row, err := strconv.Atoi(kv[0])
		if err != nil || row < 1 {
			fmt.Fprintf(os.Stderr, "fwresolve: bad row number %q\n", kv[0])
			return 2
		}
		dec, err := rule.ParseDecision(kv[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "fwresolve:", err)
			return 2
		}
		if err := plan.Resolve(row-1, dec); err != nil {
			fmt.Fprintln(os.Stderr, "fwresolve:", err)
			return 2
		}
	}
	if !plan.Resolved() {
		fmt.Fprintf(os.Stderr, "fwresolve: %d discrepancies, not all resolved by -decide\n",
			len(plan.Report.Discrepancies))
		return 2
	}

	var final *rule.Policy
	switch strings.ToLower(*method) {
	case "fdd", "1", "method1":
		final, err = plan.Method1()
	case "a":
		final, err = plan.Method2(true)
	case "b":
		final, err = plan.Method2(false)
	default:
		fmt.Fprintf(os.Stderr, "fwresolve: unknown method %q\n", *method)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwresolve:", err)
		return 2
	}
	if err := plan.Verify(final); err != nil {
		fmt.Fprintln(os.Stderr, "fwresolve:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "fwresolve: %d discrepancies resolved; final firewall has %d rules (verified)\n",
		len(plan.Report.Discrepancies), final.Size())
	if err := rule.WritePolicy(os.Stdout, final); err != nil {
		fmt.Fprintln(os.Stderr, "fwresolve:", err)
		return 2
	}
	return 0
}

// Command fwcompile runs the structured-design tooling on a policy file:
// it normalizes a policy through its FDD (construction + reduction +
// compact rule generation, the method of the paper's reference [12]) and
// optionally removes all redundant rules first ([19]). The output is an
// equivalent, typically smaller policy.
//
// Usage:
//
//	fwcompile [-schema five|four|paper] [-format name] [-compact] in.fw > out.fw
//	fwcompile -fromfdd design.fdd > out.fw   # compile an FDD design (§7.2)
//	fwcompile -tofdd in.fw > out.fdd         # export the reduced FDD
//
// -compact additionally runs complete redundancy removal on the generated
// rules. -trace writes the run's span tree (construct + generate, with
// FDD node counts) to a JSON file; see docs/OBSERVABILITY.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"diversefw/internal/cli"
	"diversefw/internal/engine"
	"diversefw/internal/fdd"
	"diversefw/internal/gen"
	"diversefw/internal/rule"
	"diversefw/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("fwcompile", flag.ContinueOnError)
	schemaName := fs.String("schema", "five", "packet schema: "+cli.SchemaNames())
	format := fs.String("format", "text", "input format: "+cli.FormatNames())
	chain := fs.String("chain", "", "chain to read for iptables/nftables inputs")
	compact := fs.Bool("compact", false, "also remove redundant rules from the generated policy")
	stats := fs.Bool("stats", false, "print FDD statistics to stderr")
	fromFDD := fs.Bool("fromfdd", false, "input is an FDD file, not a policy file")
	toFDD := fs.Bool("tofdd", false, "output the reduced FDD instead of rules")
	traceFile := fs.String("trace", "", "write the run's span tree to this file as JSON")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fwcompile [-schema name] [-format name] [-compact] [-stats] [-fromfdd] [-tofdd] [-trace file] in > out")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	schema, err := cli.Schema(*schemaName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwcompile:", err)
		return 2
	}

	ctx := context.Background()
	var tr *trace.Trace
	if *traceFile != "" {
		ctx, tr = trace.New(ctx, "fwcompile", "")
		defer func() {
			tr.Finish()
			if werr := trace.WriteFileJSON(*traceFile, tr.Snapshot()); werr != nil {
				fmt.Fprintln(os.Stderr, "fwcompile: writing trace:", werr)
			}
		}()
	}

	var f *fdd.FDD
	var inRules int
	if *fromFDD {
		in, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fwcompile:", err)
			return 2
		}
		f, err = fdd.Unmarshal(in, schema)
		in.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fwcompile:", err)
			return 2
		}
	} else {
		p, err := cli.LoadPolicyFormat(schema, fs.Arg(0), *format, *chain)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fwcompile:", err)
			return 2
		}
		inRules = p.Size()
		f, err = fdd.ConstructContext(ctx, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fwcompile:", err)
			return 2
		}
	}
	if *stats {
		st := f.Stats()
		fmt.Fprintf(os.Stderr, "fwcompile: FDD: %d nodes, %d edges, %d paths, depth %d\n",
			st.Nodes, st.Edges, st.Paths, st.Depth)
	}
	if *toFDD {
		if err := fdd.Marshal(os.Stdout, f.Reduce()); err != nil {
			fmt.Fprintln(os.Stderr, "fwcompile:", err)
			return 2
		}
		return 0
	}
	_, genSpan := trace.Start(ctx, "generate")
	out, err := gen.Generate(f)
	genSpan.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwcompile:", err)
		return 2
	}
	genSpan.SetAttr("rules", out.Size())
	if *compact {
		a, err := engine.New(engine.Config{}).Analyze(ctx, out, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fwcompile:", err)
			return 2
		}
		if len(a.Redundant) > 0 {
			fmt.Fprintf(os.Stderr, "fwcompile: removed %d redundant rules\n", len(a.Redundant))
		}
		out = a.Compacted
	}
	fmt.Fprintf(os.Stderr, "fwcompile: %d rules in, %d rules out\n", inRules, out.Size())
	if err := rule.WritePolicy(os.Stdout, out); err != nil {
		fmt.Fprintln(os.Stderr, "fwcompile:", err)
		return 2
	}
	return 0
}

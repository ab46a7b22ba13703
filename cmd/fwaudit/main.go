// Command fwaudit lints a single firewall policy with the analyses a
// design team runs before the comparison phase: pairwise anomaly
// detection (shadowing / generalization / correlation / pairwise
// redundancy, per reference [1]), exact union-shadowing detection, and
// complete redundancy detection ([19]). All three come from one
// engine.Analyze call, the analysis /v1/analyze and /v1/audit serve.
//
// Usage:
//
//	fwaudit [-schema five|four|paper] [-format name] policy.fw
//
// Exit status is 0 for a clean policy, 1 when findings are reported, and
// 2 on usage or input errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"diversefw/internal/cli"
	"diversefw/internal/engine"
	"diversefw/internal/rule"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("fwaudit", flag.ContinueOnError)
	schemaName := fs.String("schema", "five", "packet schema: "+cli.SchemaNames())
	format := fs.String("format", "text", "input format: "+cli.FormatNames())
	chain := fs.String("chain", "INPUT", "chain to read for iptables/nftables inputs")
	complete := fs.Bool("complete", true, "also run the complete (semantic) redundancy check")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fwaudit [-schema name] [-format name] policy.fw")
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
		fmt.Fprintln(os.Stderr, "fwaudit:", err)
		return 2
	}
	p, err := cli.LoadPolicyFormat(schema, fs.Arg(0), *format, *chain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwaudit:", err)
		return 2
	}

	a, err := engine.New(engine.Config{}).Analyze(context.Background(), p, *complete)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwaudit:", err)
		return 2
	}
	findings := len(a.Anomalies) + len(a.NeverFirstMatch) + len(a.Redundant)
	if len(a.Anomalies) > 0 {
		fmt.Printf("pairwise anomalies (%d):\n", len(a.Anomalies))
		for _, an := range a.Anomalies {
			fmt.Printf("  %s\n", an)
			fmt.Printf("    rule %d: %s\n", an.I+1, rule.FormatRule(p.Schema, p.Rules[an.I]))
			fmt.Printf("    rule %d: %s\n", an.J+1, rule.FormatRule(p.Schema, p.Rules[an.J]))
		}
	}
	list := func(rules []int, header string) {
		if len(rules) > 0 {
			fmt.Println(header)
			for _, i := range rules {
				fmt.Printf("  rule %d: %s\n", i+1, rule.FormatRule(p.Schema, p.Rules[i]))
			}
		}
	}
	list(a.NeverFirstMatch, fmt.Sprintf("rules that are never a first match (%d):", len(a.NeverFirstMatch)))
	list(a.Redundant, fmt.Sprintf("semantically redundant rules (%d removable; %d -> %d rules):",
		len(a.Redundant), p.Size(), p.Size()-len(a.Redundant)))

	if findings == 0 {
		fmt.Println("no findings: no anomalies, no shadowed rules, no redundancy")
		return 0
	}
	return 1
}

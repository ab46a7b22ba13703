package fdd

import (
	"fmt"
	"sort"
	"strings"
)

// reduceLegacy is the original string-signature reduction: hash-consing
// by fmt.Sprintf keys in a map[string]*Node. It is retained solely as
// the differential-testing oracle for the Interner-based Reduce (see
// quick_test.go); new code must use Reduce.
func (f *FDD) reduceLegacy() *FDD {
	canon := make(map[string]*Node) // signature -> canonical node
	sigOf := make(map[*Node]string) // canonical node -> its signature
	var reduce func(n *Node) *Node
	reduce = func(n *Node) *Node {
		if n.IsTerminal() {
			sig := fmt.Sprintf("t%d", int(n.Decision))
			if c, ok := canon[sig]; ok {
				return c
			}
			c := Terminal(n.Decision)
			canon[sig] = c
			sigOf[c] = sig
			return c
		}

		// Reduce children first, then merge edges that lead to the same
		// canonical child.
		merged := make(map[*Node]*Edge)
		var order []*Node
		for _, e := range n.Edges {
			child := reduce(e.To)
			if prev, ok := merged[child]; ok {
				prev.Label = prev.Label.Union(e.Label)
				continue
			}
			ne := &Edge{Label: e.Label, To: child}
			merged[child] = ne
			order = append(order, child)
		}
		edges := make([]*Edge, 0, len(order))
		for _, child := range order {
			edges = append(edges, merged[child])
		}
		// A node whose edges all lead to one child tests nothing, provided
		// the merged edge covers the whole domain (it always does in a
		// complete FDD, but Reduce also runs on partial diagrams during
		// construction, where an incomplete node must be preserved).
		if len(edges) == 1 && edges[0].Label.Equal(f.Schema.FullSet(n.Field)) {
			return edges[0].To
		}

		// Canonical signature: field plus (label, child-signature) pairs in
		// label order.
		sort.Slice(edges, func(i, j int) bool {
			a, _ := edges[i].Label.Min()
			b, _ := edges[j].Label.Min()
			return a < b
		})
		var sb strings.Builder
		fmt.Fprintf(&sb, "n%d", n.Field)
		for _, e := range edges {
			fmt.Fprintf(&sb, "|%s>%s", e.Label, sigOf[e.To])
		}
		sig := sb.String()
		if c, ok := canon[sig]; ok {
			return c
		}
		c := &Node{Field: n.Field, Edges: edges}
		canon[sig] = c
		sigOf[c] = sig
		return c
	}
	return &FDD{Schema: f.Schema, Root: reduce(f.Root)}
}

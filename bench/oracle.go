package main

import (
	"strconv"
	"strings"

	"natix/internal/xmlkit"
)

// The oracle: a reference evaluator for the store's four-construct path
// language (child step, descendant step, name test with * and #text,
// position predicate) over the parsed corpus tree. It shares no code
// with the store's three evaluators, so a wrong answer from any of them
// shows up as a mismatch in match count or result bytes.

type refStep struct {
	desc bool
	name string
	pos  int
}

func parseRef(expr string) []refStep {
	var steps []refStep
	for expr != "" {
		st := refStep{}
		expr = expr[1:] // leading '/'
		if strings.HasPrefix(expr, "/") {
			st.desc, expr = true, expr[1:]
		}
		end := strings.IndexByte(expr, '/')
		if end < 0 {
			end = len(expr)
		}
		st.name, expr = expr[:end], expr[end:]
		if i := strings.IndexByte(st.name, '['); i >= 0 {
			st.pos, _ = strconv.Atoi(st.name[i+1 : len(st.name)-1])
			st.name = st.name[:i]
		}
		steps = append(steps, st)
	}
	return steps
}

func refMatches(n *xmlkit.Node, name string) bool {
	if n.IsText() {
		return name == "#text"
	}
	return name == "*" || name == n.Name
}

// refCandidates lists, in document order, the nodes one step selects
// from context node n: its matching children, or for a descendant step
// its matching descendants (and n itself when n is the document root).
func refCandidates(n *xmlkit.Node, isRoot bool, st refStep, out []*xmlkit.Node) []*xmlkit.Node {
	if isRoot {
		if refMatches(n, st.name) {
			out = append(out, n)
		}
		if !st.desc {
			return out
		}
	}
	for _, c := range n.Children {
		if refMatches(c, st.name) {
			out = append(out, c)
		}
		if st.desc {
			out = refCandidates(c, false, st, out)
		}
	}
	return out
}

// refEval returns the matches of steps below context node n. A position
// predicate keeps the pos-th candidate of each context node.
func refEval(n *xmlkit.Node, isRoot bool, steps []refStep, out []*xmlkit.Node) []*xmlkit.Node {
	if len(steps) == 0 {
		return append(out, n)
	}
	cands := refCandidates(n, isRoot, steps[0], nil)
	if p := steps[0].pos; p > 0 {
		if p > len(cands) {
			return out
		}
		cands = cands[p-1 : p]
	}
	for _, c := range cands {
		out = refEval(c, false, steps[1:], out)
	}
	return out
}

// reference computes the expected answer of class cl on a corpus play.
func reference(play *xmlkit.Node, cl class) answer {
	if cl.Kind == kindExport {
		return answer{Matches: 1, Bytes: int64(len(xmlkit.SerializeString(play)))}
	}
	matches := refEval(play, true, parseRef(cl.Expr), nil)
	if cl.Limit > 0 && len(matches) > cl.Limit {
		matches = matches[:cl.Limit]
	}
	a := answer{Matches: len(matches)}
	for _, m := range matches {
		switch cl.Kind {
		case kindText:
			a.Bytes += int64(len(m.TextContent()))
		case kindMarkup:
			a.Bytes += int64(len(xmlkit.SerializeString(m)))
		}
	}
	return a
}

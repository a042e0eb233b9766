package obs

import "fmt"

// CheckWellFormed validates a span tree: a single non-nil root, every
// span named, and no child whose duration exceeds its parent's (with a
// small tolerance for clock granularity, since worker-process spans are
// measured on their own monotonic clocks and re-based on the wall clock
// when they cross the wire). Test harnesses use it to assert trace
// correctness across execution modes.
func CheckWellFormed(root *SpanData) error {
	if root == nil {
		return fmt.Errorf("trace: nil root span")
	}
	return checkSpan(root, nil)
}

// durationSlackUs absorbs wall-vs-monotonic clock re-basing across the
// worker process boundary.
const durationSlackUs = 2000

func checkSpan(s *SpanData, parent *SpanData) error {
	if s.Name == "" {
		return fmt.Errorf("trace: unnamed span under %q", parentName(parent))
	}
	if s.DurationUs < 0 {
		return fmt.Errorf("trace: span %q has negative duration %dus", s.Name, s.DurationUs)
	}
	if parent != nil && s.DurationUs > parent.DurationUs+durationSlackUs {
		return fmt.Errorf("trace: child %q (%dus) outlives parent %q (%dus)",
			s.Name, s.DurationUs, parent.Name, parent.DurationUs)
	}
	for _, c := range s.Children {
		if c == nil {
			return fmt.Errorf("trace: nil child under %q", s.Name)
		}
		if err := checkSpan(c, s); err != nil {
			return err
		}
	}
	return nil
}

func parentName(p *SpanData) string {
	if p == nil {
		return "(root)"
	}
	return p.Name
}

// FindSpans returns every span in the tree whose name matches name,
// in depth-first order (testing aid).
func FindSpans(root *SpanData, name string) []*SpanData {
	if root == nil {
		return nil
	}
	var out []*SpanData
	if root.Name == name {
		out = append(out, root)
	}
	for _, c := range root.Children {
		out = append(out, FindSpans(c, name)...)
	}
	return out
}

package analysis

import "fmt"

// All returns the full default analyzer set. stalesuppress is listed last
// because it judges the suppression usage the other analyzers' filtered
// findings produce (Analyze orders it last regardless).
func All() []Analyzer {
	return []Analyzer{
		NewErrDrop(),
		NewBannedCall(),
		NewStaleSuppress(),
	}
}

// Select filters analyzers down to the named categories. An unknown name
// is an error, so a typo in -only fails loudly instead of silently
// skipping a gate.
func Select(analyzers []Analyzer, names []string) ([]Analyzer, error) {
	if len(names) == 0 {
		return analyzers, nil
	}
	byName := map[string]Analyzer{}
	for _, az := range analyzers {
		byName[az.Name()] = az
	}
	var out []Analyzer
	for _, name := range names {
		az, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		out = append(out, az)
	}
	return out, nil
}

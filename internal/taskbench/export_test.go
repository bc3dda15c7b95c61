package taskbench

// Dependents returns the sorted set of points in step+1 that consume the
// task at (step, point): the exact inverse of Dependencies.
func (g Graph) Dependents(step, point int) []int {
	if step < 0 || step >= g.Steps-1 || point < 0 || point >= g.Width {
		return nil
	}
	var out []int
	for q := 0; q < g.Width; q++ {
		for _, d := range g.Dependencies(step+1, q) {
			if d == point {
				out = append(out, q)
				break
			}
		}
	}
	return out
}

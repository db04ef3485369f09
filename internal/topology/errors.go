package topology

import "errors"

// ErrBadConfig is wrapped by every generator-configuration validation error
// in this package (Waxman, transit–stub, N-level, and the fixed fixtures), so
// callers can match invalid-parameter failures with errors.Is without
// depending on message text.
var ErrBadConfig = errors.New("topology: invalid configuration")

// inRange reports whether lo < x ≤ hi. NaN lies in no range, so a
// validation written as !inRange refuses it, where one written as
// x <= lo || x > hi lets it through; hi = math.MaxFloat64 asks for a finite
// value above lo.
func inRange(x, lo, hi float64) bool { return lo < x && x <= hi }

package pref

// SetMemoCap sets m's entry cap, so a test can cross it cheaply.
func SetMemoCap(m *Memo, n int) { m.cap = n }

// MemoLen is how many entries m holds.
func MemoLen(m *Memo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

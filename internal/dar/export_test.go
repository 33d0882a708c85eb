package dar

// MemoLen reports how many lags p's ACF memo holds.
func MemoLen(p *Process) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.acfMem)
}

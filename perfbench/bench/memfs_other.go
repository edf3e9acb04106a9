//go:build !linux

package bench

// memFS cannot tell the filesystem type off Linux; it reports false.
func memFS(string) bool { return false }

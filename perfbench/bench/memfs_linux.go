package bench

import "syscall"

// memFS reports whether dir is on tmpfs.
func memFS(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	const tmpfsMagic = 0x01021994
	return st.Type == tmpfsMagic
}

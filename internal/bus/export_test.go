package bus

// PortsOf returns the ports connected to b, in connection order.
func PortsOf(b *Bus) []*Port { return b.ports }

// NameOf returns the name p was connected under.
func NameOf(p *Port) string { return p.name }

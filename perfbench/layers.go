package main

// httpLayerMetrics derives, for each endpoint, the mean server-side
// span (serve.<ep>.server_ms) and the mean client span minus its
// matching server span (http.<ep>.overhead_ms: connection, encoding
// and scheduling outside the handler). Client spans are load/<ep>,
// server spans serve/<ep>; they match on the request id.
func httpLayerMetrics(res *result, spans []span, endpoints ...string) {
	server := map[string]span{}
	for _, s := range spans {
		if s.Req != "" && len(s.Name) > 6 && s.Name[:6] == "serve/" {
			server[s.Req] = s
		}
	}
	named := byName(spans)
	for _, ep := range endpoints {
		var srv, over []float64
		for _, c := range named["load/"+ep] {
			s, ok := server[c.Req]
			if !ok {
				continue
			}
			srv = append(srv, ms(s.dur()))
			over = append(over, ms(c.dur()-s.dur()))
		}
		res.set("serve."+ep+".server_ms", mean(srv))
		res.set("http."+ep+".overhead_ms", mean(over))
	}
}

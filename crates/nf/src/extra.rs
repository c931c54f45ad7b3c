//! The remaining Table 2 NF types: Proxy, Compression, Traffic Shaper,
//! Gateway and Caching — completing the paper's NF inventory so every row
//! of the action table has a runnable implementation.

use crate::lz;
use crate::nf::{NetworkFunction, PacketView, Verdict};
use nfp_orchestrator::ActionProfile;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::FieldId;
use std::collections::HashMap;
use std::time::Instant;

// ---------------------------------------------------------------------
// Proxy
// ---------------------------------------------------------------------

/// A terminating proxy (Table 2: Squid — `R/W` SIP and DIP): client
/// connections are re-originated from the proxy's own address toward an
/// origin server chosen per destination.
#[derive(Debug)]
pub(crate) struct Proxy {
    name: String,
    proxy_ip: Ipv4Addr,
    /// destination → origin mapping (static config).
    origins: HashMap<Ipv4Addr, Ipv4Addr>,
    default_origin: Ipv4Addr,
    /// Packets proxied.
    proxied: u64,
}

impl Proxy {
    /// Create a proxy with a default origin.
    pub(crate) fn new(
        name: impl Into<String>,
        proxy_ip: Ipv4Addr,
        default_origin: Ipv4Addr,
    ) -> Self {
        Self {
            name: name.into(),
            proxy_ip,
            origins: HashMap::new(),
            default_origin,
            proxied: 0,
        }
    }

    /// Map a virtual destination to an origin server.
    #[cfg(test)]
    fn add_origin(&mut self, vdst: Ipv4Addr, origin: Ipv4Addr) {
        self.origins.insert(vdst, origin);
    }
}

impl NetworkFunction for Proxy {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        ActionProfile::new(self.name.clone()).reads_writes([FieldId::Sip, FieldId::Dip])
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        let Ok(dip_raw) = pkt.read_scalar(FieldId::Dip) else {
            return Verdict::Pass;
        };
        let dip = Ipv4Addr::from_u32(dip_raw as u32);
        let origin = *self.origins.get(&dip).unwrap_or(&self.default_origin);
        let _ = pkt.write(FieldId::Dip, &origin.0);
        let _ = pkt.write(FieldId::Sip, &self.proxy_ip.0);
        self.proxied += 1;
        Verdict::Pass
    }
}

// ---------------------------------------------------------------------
// Compression
// ---------------------------------------------------------------------

/// Direction of the compression endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CompressionMode {
    /// Compress payloads (WAN-optimizer egress).
    Compress,
    /// Decompress payloads (ingress).
    #[cfg(test)]
    Decompress,
}

/// Payload compressor (Table 2: Cisco IOS — `R/W` payload), over the
/// from-scratch LZSS in [`crate::lz`]. Payload-length changes are legal:
/// the merger's `modify(v1.payload, vX.payload)` resizes the original.
#[derive(Debug)]
pub(crate) struct Compression {
    name: String,
    mode: CompressionMode,
    /// Payloads actually rewritten (compression is skipped when it would
    /// not shrink the payload).
    rewritten: u64,
    /// Decompression failures (packet dropped — corrupt stream).
    #[cfg(test)]
    errors: u64,
}

impl Compression {
    /// Create a compression endpoint.
    pub(crate) fn new(name: impl Into<String>, mode: CompressionMode) -> Self {
        Self {
            name: name.into(),
            mode,
            rewritten: 0,
            #[cfg(test)]
            errors: 0,
        }
    }
}

impl NetworkFunction for Compression {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        ActionProfile::new(self.name.clone()).reads_writes([FieldId::Payload])
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        // Payload resizing is structural: requires exclusive ownership,
        // which the compiler guarantees for payload writers.
        let Some(packet) = pkt.exclusive_mut() else {
            debug_assert!(false, "Compression scheduled on a shared view");
            return Verdict::Pass;
        };
        let Ok(payload) = packet.payload().map(<[u8]>::to_vec) else {
            return Verdict::Pass;
        };
        match self.mode {
            CompressionMode::Compress => {
                let compressed = lz::compress(&payload);
                if compressed.len() < payload.len() && packet.replace_payload(&compressed).is_ok() {
                    self.rewritten += 1;
                }
            }
            #[cfg(test)]
            CompressionMode::Decompress => match lz::decompress(&payload) {
                Ok(original) => {
                    if packet.replace_payload(&original).is_ok() {
                        self.rewritten += 1;
                    }
                }
                Err(_) => {
                    self.errors += 1;
                    return Verdict::Drop;
                }
            },
        }
        Verdict::Pass
    }
}

// ---------------------------------------------------------------------
// Traffic shaper
// ---------------------------------------------------------------------

/// Token-bucket traffic conditioner (Table 2: Linux tc — no packet
/// actions). In `Shape` mode it only *accounts* conformance (a shaper
/// delays rather than modifies, and delay is the execution substrate's
/// job); in `Police` mode it drops non-conformant packets, which adds a
/// Drop action to its profile.
#[derive(Debug)]
pub(crate) struct TrafficShaper {
    name: String,
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last_refill: Instant,
    policing: bool,
    /// Conformant packets.
    conformant: u64,
    /// Non-conformant packets (dropped when policing).
    exceeded: u64,
}

impl TrafficShaper {
    /// Create a shaper with `rate` bytes/s and `burst` bytes of depth.
    pub(crate) fn new(name: impl Into<String>, rate: f64, burst: f64, policing: bool) -> Self {
        Self {
            name: name.into(),
            rate_bytes_per_sec: rate,
            burst_bytes: burst,
            tokens: burst,
            last_refill: Instant::now(),
            policing,
            conformant: 0,
            exceeded: 0,
        }
    }

    fn refill(&mut self) {
        let now = Instant::now();
        let dt = now.duration_since(self.last_refill);
        self.last_refill = now;
        self.tokens =
            (self.tokens + dt.as_secs_f64() * self.rate_bytes_per_sec).min(self.burst_bytes);
    }

    /// Manually add elapsed time (deterministic tests).
    #[cfg(test)]
    fn advance(&mut self, dt: std::time::Duration) {
        self.tokens =
            (self.tokens + dt.as_secs_f64() * self.rate_bytes_per_sec).min(self.burst_bytes);
        self.last_refill = Instant::now();
    }
}

impl NetworkFunction for TrafficShaper {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        let p = ActionProfile::new(self.name.clone());
        if self.policing {
            p.drops()
        } else {
            p
        }
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        self.refill();
        let cost = pkt.len() as f64;
        if self.tokens >= cost {
            self.tokens -= cost;
            self.conformant += 1;
            Verdict::Pass
        } else {
            self.exceeded += 1;
            if self.policing {
                Verdict::Drop
            } else {
                Verdict::Pass
            }
        }
    }
}

// ---------------------------------------------------------------------
// Gateway
// ---------------------------------------------------------------------

/// A conference/voice/media gateway front (Table 2: Cisco MGX — reads SIP
/// and DIP): admits sessions between configured subnets and tracks them.
#[derive(Debug)]
pub(crate) struct Gateway {
    name: String,
    sessions: HashMap<(u32, u32), u64>,
    /// Packets observed.
    packets: u64,
}

impl Gateway {
    /// Create a gateway.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            sessions: HashMap::new(),
            packets: 0,
        }
    }

    /// Number of (src, dst) sessions observed.
    #[cfg(test)]
    fn session_count(&self) -> usize {
        self.sessions.len()
    }
}

impl NetworkFunction for Gateway {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        ActionProfile::new(self.name.clone()).reads([FieldId::Sip, FieldId::Dip])
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        let (Ok(s), Ok(d)) = (pkt.read_scalar(FieldId::Sip), pkt.read_scalar(FieldId::Dip)) else {
            return Verdict::Pass;
        };
        *self.sessions.entry((s as u32, d as u32)).or_default() += 1;
        self.packets += 1;
        Verdict::Pass
    }
}

// ---------------------------------------------------------------------
// Caching
// ---------------------------------------------------------------------

/// A request cache front (Table 2: Nginx — reads DIP, DPORT and the
/// payload): keys requests by `(dip, dport, payload prefix)` and keeps an
/// LRU of recently seen keys, counting hits and misses.
#[derive(Debug)]
pub(crate) struct Caching {
    name: String,
    capacity: usize,
    /// key → recency stamp.
    entries: HashMap<u64, u64>,
    clock: u64,
    /// Cache hits.
    hits: u64,
    /// Cache misses (insertions).
    misses: u64,
    scratch: Vec<u8>,
}

impl Caching {
    /// Create a cache with `capacity` entries.
    pub(crate) fn new(name: impl Into<String>, capacity: usize) -> Self {
        Self {
            name: name.into(),
            capacity: capacity.max(1),
            entries: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            scratch: vec![0u8; 256],
        }
    }

    fn key(dip: u64, dport: u64, prefix: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in dip
            .to_be_bytes()
            .into_iter()
            .chain(dport.to_be_bytes())
            .chain(prefix.iter().copied())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Entries currently cached.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

impl NetworkFunction for Caching {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        ActionProfile::new(self.name.clone()).reads([
            FieldId::Dip,
            FieldId::Dport,
            FieldId::Payload,
        ])
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        let (Ok(dip), Ok(dport)) = (
            pkt.read_scalar(FieldId::Dip),
            pkt.read_scalar(FieldId::Dport),
        ) else {
            return Verdict::Pass;
        };
        let n = pkt
            .read_bytes(FieldId::Payload, &mut self.scratch)
            .unwrap_or(0)
            .min(32);
        let key = Self::key(dip, dport, &self.scratch[..n]);
        self.clock += 1;
        if self.entries.contains_key(&key) {
            self.entries.insert(key, self.clock);
            self.hits += 1;
        } else {
            self.misses += 1;
            if self.entries.len() >= self.capacity {
                // Evict the least recently used key.
                if let Some((&lru, _)) = self.entries.iter().min_by_key(|(_, &t)| t) {
                    self.entries.remove(&lru);
                }
            }
            self.entries.insert(key, self.clock);
        }
        Verdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::testutil::*;
    use std::time::Duration;

    #[test]
    fn proxy_rewrites_both_addresses() {
        let mut proxy = Proxy::new("proxy", ip(10, 0, 0, 100), ip(10, 50, 0, 1));
        proxy.add_origin(ip(203, 0, 113, 10), ip(10, 50, 0, 2));
        let mut p = tcp_packet(ip(192, 168, 1, 5), ip(203, 0, 113, 10), 555, 80, b"GET /");
        assert_eq!(
            proxy.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Pass
        );
        assert_eq!(p.sip().unwrap(), ip(10, 0, 0, 100));
        assert_eq!(p.dip().unwrap(), ip(10, 50, 0, 2));
        // Unmapped destination → default origin.
        let mut q = tcp_packet(ip(192, 168, 1, 5), ip(8, 8, 8, 8), 555, 80, b"");
        proxy.process(&mut PacketView::Exclusive(&mut q));
        assert_eq!(q.dip().unwrap(), ip(10, 50, 0, 1));
        assert_eq!(proxy.proxied, 2);
    }

    #[test]
    fn compression_roundtrips_through_two_endpoints() {
        let mut comp = Compression::new("comp", CompressionMode::Compress);
        let mut decomp = Compression::new("decomp", CompressionMode::Decompress);
        let payload = b"repetitive payload repetitive payload repetitive payload!".repeat(4);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, &payload);
        let before = p.len();
        assert_eq!(
            comp.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Pass
        );
        assert!(p.len() < before, "payload should shrink");
        assert_eq!(comp.rewritten, 1);
        assert_eq!(
            decomp.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Pass
        );
        assert_eq!(p.payload().unwrap(), &payload[..]);
        assert_eq!(p.len(), before);
    }

    #[test]
    fn compression_skips_incompressible() {
        let mut comp = Compression::new("comp", CompressionMode::Compress);
        let payload: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
            .collect();
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, &payload);
        comp.process(&mut PacketView::Exclusive(&mut p));
        assert_eq!(comp.rewritten, 0);
        assert_eq!(p.payload().unwrap(), &payload[..]);
    }

    #[test]
    fn decompression_of_garbage_drops() {
        let mut decomp = Compression::new("d", CompressionMode::Decompress);
        let mut p = tcp_packet(
            ip(1, 1, 1, 1),
            ip(2, 2, 2, 2),
            1,
            2,
            &[0x01, 0xff, 0xff, 0x00],
        );
        assert_eq!(
            decomp.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Drop
        );
        assert_eq!(decomp.errors, 1);
    }

    #[test]
    fn shaper_polices_bursts() {
        // 1 kB/s with a 200 B bucket: two 100 B packets conform, the third
        // exceeds until time passes.
        let mut shaper = TrafficShaper::new("tc", 1_000.0, 200.0, true);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, &[0u8; 46]); // 100B frame
        assert_eq!(
            shaper.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Pass
        );
        assert_eq!(
            shaper.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Pass
        );
        assert_eq!(
            shaper.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Drop
        );
        shaper.advance(Duration::from_millis(150)); // +150 B of tokens
        assert_eq!(
            shaper.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Pass
        );
        assert_eq!((shaper.conformant, shaper.exceeded), (3, 1));
    }

    #[test]
    fn shaper_in_shape_mode_never_drops() {
        let mut shaper = TrafficShaper::new("tc", 1.0, 1.0, false);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"");
        for _ in 0..10 {
            assert_eq!(
                shaper.process(&mut PacketView::Exclusive(&mut p)),
                Verdict::Pass
            );
        }
        assert!(shaper.exceeded > 0);
        assert!(shaper.profile().actions.is_empty());
    }

    #[test]
    fn gateway_tracks_sessions() {
        let mut gw = Gateway::new("gw");
        for i in 0..5 {
            let mut p = tcp_packet(ip(10, 0, 0, i), ip(10, 1, 0, 1), 1, 2, b"");
            gw.process(&mut PacketView::Exclusive(&mut p));
        }
        let mut again = tcp_packet(ip(10, 0, 0, 0), ip(10, 1, 0, 1), 1, 2, b"");
        gw.process(&mut PacketView::Exclusive(&mut again));
        assert_eq!(gw.session_count(), 5);
        assert_eq!(gw.packets, 6);
        assert!(gw.profile().is_read_only());
    }

    #[test]
    fn caching_lru_hits_and_evicts() {
        let mut cache = Caching::new("cache", 2);
        let req = |path: &[u8]| tcp_packet(ip(1, 1, 1, 1), ip(9, 9, 9, 9), 1, 80, path);
        let mut a = req(b"GET /a");
        let mut b = req(b"GET /b");
        let mut c = req(b"GET /c");
        cache.process(&mut PacketView::Exclusive(&mut a)); // miss
        cache.process(&mut PacketView::Exclusive(&mut a)); // hit
        cache.process(&mut PacketView::Exclusive(&mut b)); // miss
        cache.process(&mut PacketView::Exclusive(&mut c)); // miss → evicts /a (LRU)
        let mut a2 = req(b"GET /a");
        cache.process(&mut PacketView::Exclusive(&mut a2)); // miss again
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 4);
        assert_eq!(cache.len(), 2);
    }
}

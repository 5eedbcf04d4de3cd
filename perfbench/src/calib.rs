//! Host-speed calibration.
//!
//! The 2-vCPU VM this benchmark was tuned on switches between speed
//! regimes minutes apart: the same 48 cells ran at 40 and at 65 M
//! instr/s within half an hour, and the hot round trip at 36 and 22 µs.
//! More work per run cannot average that out. So each run also times
//! fixed slices of this crate's own work between its timed operations,
//! and reports its timings scaled to a reference host speed. The slices
//! run no code of the program, so no change to the program moves them.
//!
//! A memory slice (random read-modify-writes over a table) and a
//! loopback slice (TCP round trips to an echo thread) are timed
//! together. Over batches of runs that spanned regime switches, the
//! loopback slice alone tracked `fleet_hot` in every batch (spread of
//! its rate 35% → 6%, 5% → 2.5%); for `sim_fig7` and `fleet_cold`
//! neither slice alone helped in every batch, and the geometric mean of
//! the two never hurt much and sometimes helped a lot (`fleet_cold`
//! 35% → 14%).

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::median;

/// Median slice time, in nanoseconds, that defines speed 1.0 for both
/// slices: about what each took on the VM in its slower regime.
const REFERENCE_NS: f64 = 3_000_000.0;

/// Words in the memory slice's table: 2 MiB, beyond a private L2.
const TABLE_WORDS: usize = 1 << 18;

/// Round trips in the loopback slice, and their message size.
const ROUND_TRIPS: usize = 200;
const MESSAGE: usize = 128;

/// What a timing is scaled by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// The loopback slice alone.
    Loopback,
    /// The geometric mean of the memory and loopback slices' speeds.
    Both,
}

/// Independent random read-modify-writes over the table: the access
/// shape of the simulator's cache, TLB and directory lookups.
fn memory_slice(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut sum = 0u64;
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        sum = sum.wrapping_add(table[i] ^ x.rotate_left(11));
        table[i] = table[i].wrapping_mul(0x100_0000_01b3) ^ sum;
    }
    sum
}

/// Slice timings taken over one run, and the loopback echo peer.
pub struct Calibration {
    table: Vec<u64>,
    client: Option<TcpStream>,
    echo: Option<JoinHandle<()>>,
    memory_ns: Vec<f64>,
    loopback_ns: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Result<Self, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("calibration bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("calibration addr: {e}"))?;
        let echo = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut buf = [0u8; MESSAGE];
            while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
        });
        let client = TcpStream::connect(addr).map_err(|e| format!("calibration connect: {e}"))?;
        client
            .set_nodelay(true)
            .map_err(|e| format!("calibration nodelay: {e}"))?;
        Ok(Calibration {
            table: (0..TABLE_WORDS as u64).collect(),
            client: Some(client),
            echo: Some(echo),
            memory_ns: Vec::new(),
            loopback_ns: Vec::new(),
        })
    }

    /// Times one of each slice.
    pub fn sample(&mut self) -> Result<(), String> {
        let start = Instant::now();
        black_box(memory_slice(black_box(&mut self.table)));
        self.memory_ns.push(start.elapsed().as_nanos() as f64);

        let client = self.client.as_mut().ok_or("calibration socket closed")?;
        let mut buf = [7u8; MESSAGE];
        let start = Instant::now();
        for _ in 0..ROUND_TRIPS {
            client
                .write_all(&buf)
                .and_then(|()| client.read_exact(&mut buf))
                .map_err(|e| format!("calibration round trip: {e}"))?;
        }
        self.loopback_ns.push(start.elapsed().as_nanos() as f64);
        Ok(())
    }

    pub fn samples(&self) -> usize {
        self.memory_ns.len()
    }

    /// Host speed relative to the reference, by the median slice: 2.0
    /// means the slices ran twice as fast. Rates are divided by it and
    /// times multiplied.
    pub fn speed(&self, slice: Slice) -> f64 {
        let loopback = REFERENCE_NS / median(&self.loopback_ns);
        match slice {
            Slice::Loopback => loopback,
            Slice::Both => (loopback * REFERENCE_NS / median(&self.memory_ns)).sqrt(),
        }
    }
}

impl Drop for Calibration {
    fn drop(&mut self) {
        // Closing the socket ends the echo thread.
        drop(self.client.take());
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_reference_over_the_median_slice() {
        let mut c = Calibration::new().expect("calibration");
        for _ in 0..3 {
            c.sample().expect("sample");
        }
        assert_eq!(c.samples(), 3);
        for slice in [Slice::Both, Slice::Loopback] {
            assert!(c.speed(slice).is_finite() && c.speed(slice) > 0.0);
        }
        c.memory_ns = vec![REFERENCE_NS / 4.0, REFERENCE_NS / 4.0, 1e12];
        c.loopback_ns = vec![REFERENCE_NS, 1.0, 1e12];
        assert_eq!(c.speed(Slice::Loopback), 1.0);
        assert_eq!(c.speed(Slice::Both), 2.0);
    }
}

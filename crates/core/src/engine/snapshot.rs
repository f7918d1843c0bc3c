//! Persistent [`EngineCore`] snapshots: serialize the whole preprocessed
//! engine to a single versioned flat-binary file and load it back with one
//! allocation + one bulk pass per array — no BFS, no augmentation, no
//! validation sweeps beyond invariant checks.
//!
//! The snapshot is an `ftb_io` container (see [`ftb_io`] for the header
//! layout) whose sections mirror the core's fields one-to-one. Everything
//! the core owns is a flat `Vec` already, so the payload is raw
//! little-endian array bytes; the only derived data rebuilt at load time is
//! the `CompactSubgraph` reverse edge maps (an `O(m)` scatter each).
//!
//! Schema changes are caught by [`engine_layout_hash`], an FNV-1a hash of a
//! static schema description string: any session that renames, reorders or
//! retypes a serialized field must update [`ENGINE_LAYOUT`], and stale
//! snapshots then fail with [`SnapshotError::LayoutMismatch`] instead of
//! misdecoding.
//!
//! Decoding is **total**: every byte string either yields a core or a typed
//! [`SnapshotError`]. The serving-side [`EngineOptions`] are deliberately
//! *not* snapshotted — they are deployment knobs (worker threads, fault
//! cap, sweep mode), supplied by whoever loads the core.

use super::core::{next_core_token, AugmentedTier, FaultFreeRow, SlotTree};
use super::{EngineCore, EngineOptions, ParentEntry};
use crate::ftbfs::AugmentCoverage;
use crate::structure::FtBfsStructure;
use ftb_graph::{CompactSubgraph, EdgeId, Graph, VertexId};
use ftb_io::{fnv1a, Load, Reader, SnapshotError, SnapshotReader, SnapshotWriter, Store, Writer};
use ftb_sp::EulerTourIndex;

/// Section ids of the engine snapshot container.
const SECTION_GRAPH: u32 = 1;
const SECTION_STRUCTURE: u32 = 2;
const SECTION_SOURCES: u32 = 3;
const SECTION_H: u32 = 4;
const SECTION_AUG: u32 = 5;
const SECTION_ROWS: u32 = 6;
const SECTION_FULL_PARENT: u32 = 7;
const SECTION_TREES: u32 = 8;
const SECTION_SLOT_OF: u32 = 9;
const SECTION_NOTE: u32 = 10;

/// Static description of everything [`EngineCore::write_snapshot`] writes,
/// in order. The layout hash in the snapshot header is the FNV-1a hash of
/// this string, so any change to the serialized schema MUST be reflected
/// here — that is what turns schema drift into a typed
/// [`SnapshotError::LayoutMismatch`] instead of a misdecode.
const ENGINE_LAYOUT: &str = "EngineCore snapshot v1:\
 graph{offsets:u32[],neighbors:u32[],slot_edges:u32[],endpoints:u32[2m]}\
 structure{source:u32,eps:f64bits,edges:bitset,reinforced:bitset,stats:u64[16]+u8+f64bits[5]}\
 sources:u32[]\
 h:{graph,to_parent:u32[]}\
 aug:{present:u8,csr:{graph,to_parent:u32[]},coverage:u8,parent_rows:(u32[],u32[])/slot}\
 rows:{dist:u32[],parent:(u32[],u32[])}/slot\
 full_parent:(u32[],u32[])/slot\
 trees:{euler:{root:u32,tin:u32[],tout:u32[],order:u32[]},edge_child:u32[]}/slot\
 slot_of:u32[]\
 note:bytes";

/// The layout hash stamped into (and expected from) engine snapshots.
pub fn engine_layout_hash() -> u64 {
    fnv1a(ENGINE_LAYOUT.as_bytes())
}

fn bad(section: &'static str, detail: &'static str) -> SnapshotError {
    SnapshotError::Malformed { section, detail }
}

/// Encode a parent row as two parallel `u32` arrays (vertex, edge) with
/// `u32::MAX` standing for `None` in both.
fn store_parent_row(w: &mut Writer, row: &[ParentEntry]) {
    let mut pv = Vec::with_capacity(row.len());
    let mut pe = Vec::with_capacity(row.len());
    for entry in row {
        match entry {
            Some((v, e)) => {
                pv.push(v.0);
                pe.push(e.0);
            }
            None => {
                pv.push(u32::MAX);
                pe.push(u32::MAX);
            }
        }
    }
    w.put_u32_slice(&pv);
    w.put_u32_slice(&pe);
}

/// Decode a parent row of length `n` whose vertex entries must be `< n` and
/// whose edge entries must be `< m`; the two sentinel arrays must agree on
/// which entries are `None`.
fn load_parent_row(
    r: &mut Reader<'_>,
    section: &'static str,
    n: usize,
    m: usize,
) -> Result<Vec<ParentEntry>, SnapshotError> {
    let pv = r.get_u32_vec()?;
    let pe = r.get_u32_vec()?;
    if pv.len() != n || pe.len() != n {
        return Err(bad(section, "parent row length mismatch"));
    }
    pv.into_iter()
        .zip(pe)
        .map(|(v, e)| match (v, e) {
            (u32::MAX, u32::MAX) => Ok(None),
            (u32::MAX, _) | (_, u32::MAX) => {
                Err(bad(section, "parent entry sentinel disagreement"))
            }
            (v, e) if (v as usize) < n && (e as usize) < m => Ok(Some((VertexId(v), EdgeId(e)))),
            _ => Err(bad(section, "parent entry out of range")),
        })
        .collect()
}

/// Encode an `Option<VertexId>` array with `u32::MAX` standing for `None`.
fn store_opt_vertex_row(w: &mut Writer, row: &[Option<VertexId>]) {
    let flat: Vec<u32> = row.iter().map(|v| v.map_or(u32::MAX, |v| v.0)).collect();
    w.put_u32_slice(&flat);
}

fn load_opt_vertex_row(
    r: &mut Reader<'_>,
    section: &'static str,
    expected_len: usize,
    n: usize,
) -> Result<Vec<Option<VertexId>>, SnapshotError> {
    let flat = r.get_u32_vec()?;
    if flat.len() != expected_len {
        return Err(bad(section, "array length mismatch"));
    }
    flat.into_iter()
        .map(|v| match v {
            u32::MAX => Ok(None),
            v if (v as usize) < n => Ok(Some(VertexId(v))),
            _ => Err(bad(section, "vertex id out of range")),
        })
        .collect()
}

impl EngineCore {
    /// Serialize the whole preprocessed core to snapshot bytes.
    ///
    /// `note` is an opaque application payload stored verbatim in its own
    /// section and returned by [`EngineCore::read_snapshot`]; the serving
    /// tier uses it to embed the `EngineSpec` the core was built from.
    /// Serialization is deterministic: the same core (and note) always
    /// produces byte-identical output, so `save → load → save` is a
    /// byte-level fixed point.
    pub fn write_snapshot(&self, note: &[u8]) -> Vec<u8> {
        let mut snap = SnapshotWriter::new();
        snap.section(SECTION_GRAPH, |w| self.graph.store(w));
        snap.section(SECTION_STRUCTURE, |w| self.structure.store(w));
        snap.section(SECTION_SOURCES, |w| {
            let flat: Vec<u32> = self.sources.iter().map(|s| s.0).collect();
            w.put_u32_slice(&flat);
        });
        snap.section(SECTION_H, |w| self.h.store_into(w));
        snap.section(SECTION_AUG, |w| match &self.aug {
            None => w.put_u8(0),
            Some(aug) => {
                w.put_u8(1);
                aug.csr.store_into(w);
                aug.coverage.store(w);
                w.put_u64(aug.fault_free_parent.len() as u64);
                for row in &aug.fault_free_parent {
                    store_parent_row(w, row);
                }
            }
        });
        snap.section(SECTION_ROWS, |w| {
            w.put_u64(self.fault_free.len() as u64);
            for row in &self.fault_free {
                w.put_u32_slice(&row.dist);
                store_parent_row(w, &row.parent);
            }
        });
        snap.section(SECTION_FULL_PARENT, |w| {
            w.put_u64(self.full_parent.len() as u64);
            for row in &self.full_parent {
                store_parent_row(w, row);
            }
        });
        snap.section(SECTION_TREES, |w| {
            w.put_u64(self.trees.len() as u64);
            for tree in &self.trees {
                tree.euler.store_into(w);
                store_opt_vertex_row(w, &tree.edge_child);
            }
        });
        snap.section(SECTION_SLOT_OF, |w| w.put_u32_slice(&self.slot_of));
        snap.raw_section(SECTION_NOTE, note.to_vec());
        snap.finish(engine_layout_hash(), self.graph.fingerprint())
    }

    /// Decode a core from snapshot bytes, returning it together with the
    /// opaque note payload the snapshot was written with.
    ///
    /// `options` supplies the serving-side knobs (they are not part of the
    /// snapshot). The decoded graph's recomputed
    /// [`fingerprint`](Graph::fingerprint) must match the one in the header
    /// — a mismatch yields [`SnapshotError::GraphMismatch`] — and every
    /// cross-array invariant the query paths rely on is revalidated, so a
    /// file that decodes is safe to serve from.
    ///
    /// # Errors
    ///
    /// Any malformed, truncated, corrupted, version-skewed or wrong-schema
    /// input returns the corresponding [`SnapshotError`]; this function
    /// never panics on untrusted bytes.
    pub fn read_snapshot(
        bytes: &[u8],
        options: EngineOptions,
    ) -> Result<(Self, Vec<u8>), SnapshotError> {
        let t_load = std::time::Instant::now();
        let snap = SnapshotReader::parse(bytes, engine_layout_hash())?;

        let mut r = snap.section(SECTION_GRAPH)?;
        let graph = Graph::load(&mut r)?;
        r.finish("graph")?;
        if graph.fingerprint() != snap.fingerprint() {
            return Err(SnapshotError::GraphMismatch {
                expected: snap.fingerprint(),
                found: graph.fingerprint(),
            });
        }
        let n = graph.num_vertices();
        let m = graph.num_edges();

        let mut r = snap.section(SECTION_STRUCTURE)?;
        let structure = FtBfsStructure::load(&mut r)?;
        r.finish("structure")?;
        if structure.edge_set().capacity() != m {
            return Err(bad("structure", "edge space does not match the graph"));
        }
        if structure.source().index() >= n {
            return Err(bad("structure", "source out of range"));
        }

        let mut r = snap.section(SECTION_SOURCES)?;
        let sources: Vec<VertexId> = r.get_u32_vec()?.into_iter().map(VertexId).collect();
        r.finish("sources")?;
        if sources.is_empty() {
            return Err(bad("sources", "no sources"));
        }
        if sources.iter().any(|s| s.index() >= n) {
            return Err(bad("sources", "source out of range"));
        }
        let slots = sources.len();

        let mut r = snap.section(SECTION_H)?;
        let h = CompactSubgraph::load_from(&mut r, m)?;
        r.finish("h")?;
        if h.graph().num_vertices() != n {
            return Err(bad("h", "vertex space does not match the graph"));
        }

        let mut r = snap.section(SECTION_AUG)?;
        let aug = match r.get_u8()? {
            0 => None,
            1 => {
                let csr = CompactSubgraph::load_from(&mut r, m)?;
                if csr.graph().num_vertices() != n {
                    return Err(bad("aug", "vertex space does not match the graph"));
                }
                let coverage = AugmentCoverage::load(&mut r)?;
                if coverage == AugmentCoverage::Off {
                    return Err(bad("aug", "augmented tier with coverage off"));
                }
                let rows = r.get_u64()? as usize;
                if rows != slots {
                    return Err(bad("aug", "parent row count mismatch"));
                }
                let fault_free_parent = (0..rows)
                    .map(|_| load_parent_row(&mut r, "aug", n, m))
                    .collect::<Result<Vec<_>, _>>()?;
                Some(AugmentedTier {
                    csr,
                    coverage,
                    fault_free_parent,
                })
            }
            _ => return Err(bad("aug", "unknown augmentation flag")),
        };
        r.finish("aug")?;

        let mut r = snap.section(SECTION_ROWS)?;
        if r.get_u64()? as usize != slots {
            return Err(bad("rows", "row count mismatch"));
        }
        let mut fault_free = Vec::with_capacity(slots);
        for _ in 0..slots {
            let dist = r.get_u32_vec()?;
            if dist.len() != n {
                return Err(bad("rows", "distance row length mismatch"));
            }
            let parent = load_parent_row(&mut r, "rows", n, m)?;
            fault_free.push(FaultFreeRow { dist, parent });
        }
        r.finish("rows")?;

        let mut r = snap.section(SECTION_FULL_PARENT)?;
        if r.get_u64()? as usize != slots {
            return Err(bad("full_parent", "row count mismatch"));
        }
        let full_parent = (0..slots)
            .map(|_| load_parent_row(&mut r, "full_parent", n, m))
            .collect::<Result<Vec<_>, _>>()?;
        r.finish("full_parent")?;

        let mut r = snap.section(SECTION_TREES)?;
        if r.get_u64()? as usize != slots {
            return Err(bad("trees", "tree count mismatch"));
        }
        let mut trees = Vec::with_capacity(slots);
        for _ in 0..slots {
            let euler = EulerTourIndex::load_from(&mut r, n)?;
            let edge_child = load_opt_vertex_row(&mut r, "trees", h.num_edges(), n)?;
            trees.push(SlotTree { euler, edge_child });
        }
        r.finish("trees")?;

        let mut r = snap.section(SECTION_SLOT_OF)?;
        let slot_of = r.get_u32_vec()?;
        r.finish("slot_of")?;
        if slot_of.len() != n {
            return Err(bad("slot_of", "length does not match vertex count"));
        }
        if slot_of
            .iter()
            .any(|&s| s != u32::MAX && s as usize >= slots)
        {
            return Err(bad("slot_of", "slot index out of range"));
        }

        let note = snap.section_bytes(SECTION_NOTE)?.to_vec();

        Ok((
            EngineCore {
                graph,
                structure,
                sources,
                h,
                aug,
                fault_free,
                full_parent,
                trees,
                slot_of,
                options,
                build_timings: vec![("snapshot_load", t_load.elapsed().as_nanos() as u64)],
                augment_stats: None,
                token: next_core_token(),
            },
            note,
        ))
    }
}

//! Load TPC-H into a simulated cluster with the paper's layout.
//!
//! "We loaded the files into the distributed file system, which distributed
//! the files into 128 partitions evenly spread into the nodes by hashing
//! with their primary keys. We also created local secondary indexes on the
//! date columns (e.g., o_orderdate in Order) of each file and global
//! indexes for each foreign key of each file. Each global index is also
//! distributed into partitions by the corresponding foreign key." (§ III-E)

use crate::cols;
use crate::gen::TpchGenerator;
use rede_common::{Result, Value};
use rede_core::maintenance::IndexBuilder;
use rede_core::prebuilt::{DelimitedInterpreter, FieldType};
use rede_storage::{FileSpec, IndexSpec, Partitioning, SimCluster};
use std::sync::Arc;

/// What to load and which structures to build.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Partitions per file (the paper used one per node; default follows
    /// the cluster size).
    pub partitions: Option<usize>,
    /// Build the local date indexes (`orders.o_orderdate`,
    /// `lineitem.l_shipdate`).
    pub date_indexes: bool,
    /// Build the global FK indexes needed by Q5'
    /// (`lineitem.l_orderkey`) and by the Part⋈Lineitem example
    /// (`lineitem.l_partkey`, `part.p_retailprice` local).
    pub fk_indexes: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            partitions: None,
            date_indexes: true,
            fk_indexes: true,
        }
    }
}

/// Handle to the loaded dataset.
pub struct LoadedTpch {
    /// The generator used (for regenerating expected values in tests).
    pub generator: TpchGenerator,
    /// Rows loaded per table: (orders, lineitem).
    pub orders_rows: usize,
    /// Total lineitem rows (stochastic, ~4 per order).
    pub lineitem_rows: usize,
}

/// Catalog names used by the loader.
pub mod names {
    pub const REGION: &str = "region";
    pub const NATION: &str = "nation";
    pub const SUPPLIER: &str = "supplier";
    pub const CUSTOMER: &str = "customer";
    pub const PART: &str = "part";
    pub const PARTSUPP: &str = "partsupp";
    pub const ORDERS: &str = "orders";
    pub const LINEITEM: &str = "lineitem";
    /// Local secondary index on o_orderdate.
    pub const ORDERS_BY_DATE: &str = "orders.o_orderdate";
    /// Local secondary index on l_shipdate.
    pub const LINEITEM_BY_SHIPDATE: &str = "lineitem.l_shipdate";
    /// Global FK index on l_orderkey.
    pub const LINEITEM_BY_ORDERKEY: &str = "lineitem.l_orderkey";
    /// Global FK index on l_partkey.
    pub const LINEITEM_BY_PARTKEY: &str = "lineitem.l_partkey";
    /// Local secondary index on p_retailprice.
    pub const PART_BY_RETAILPRICE: &str = "part.p_retailprice";
    /// Global FK index on o_custkey.
    pub const ORDERS_BY_CUSTKEY: &str = "orders.o_custkey";
}

/// Generate and load the dataset, then build the configured structures.
pub fn load_tpch(
    cluster: &SimCluster,
    generator: TpchGenerator,
    options: &LoadOptions,
) -> Result<LoadedTpch> {
    let partitions = options.partitions.unwrap_or_else(|| cluster.nodes());
    let hash = || Partitioning::hash(partitions);
    let size = *generator.size();

    // --- base files, hash-partitioned by primary key -------------------
    let region = cluster.create_file(FileSpec::new(names::REGION, hash()))?;
    for i in 0..size.region {
        region.insert(Value::Int(i as i64), generator.region_record(i))?;
    }
    let nation = cluster.create_file(FileSpec::new(names::NATION, hash()))?;
    for i in 0..size.nation {
        nation.insert(Value::Int(i as i64), generator.nation_record(i))?;
    }
    let supplier = cluster.create_file(FileSpec::new(names::SUPPLIER, hash()))?;
    for i in 1..=size.supplier {
        supplier.insert(Value::Int(i as i64), generator.supplier_record(i))?;
    }
    let customer = cluster.create_file(FileSpec::new(names::CUSTOMER, hash()))?;
    for i in 1..=size.customer {
        customer.insert(Value::Int(i as i64), generator.customer_record(i))?;
    }
    let part = cluster.create_file(FileSpec::new(names::PART, hash()))?;
    for i in 1..=size.part {
        part.insert(Value::Int(i as i64), generator.part_record(i))?;
    }
    let partsupp = cluster.create_file(FileSpec::new(names::PARTSUPP, hash()))?;
    for i in 0..size.partsupp {
        // Composite PK; record key is the row number, partitioned by it.
        partsupp.insert(Value::Int(i as i64), generator.partsupp_record(i))?;
    }

    let orders = cluster.create_file(FileSpec::new(names::ORDERS, hash()))?;
    let lineitem = cluster.create_file(FileSpec::new(names::LINEITEM, hash()))?;
    let mut lineitem_rows = 0usize;
    for k in 1..=size.orders as i64 {
        let o = generator.order_with_lines(k);
        orders.insert(Value::Int(k), o.order)?;
        for (record_key, line) in o.lines {
            // Partitioned by l_orderkey, keyed by orderkey*8+linenumber.
            lineitem.insert_with_partition_key(&Value::Int(k), Value::Int(record_key), line)?;
            lineitem_rows += 1;
        }
    }

    // --- structures, built through registered access methods ------------
    if options.date_indexes {
        IndexBuilder::new(
            cluster.clone(),
            IndexSpec::local(names::ORDERS_BY_DATE, names::ORDERS, partitions),
            Arc::new(DelimitedInterpreter::pipe(
                cols::orders::ORDERDATE,
                FieldType::Date,
            )),
        )
        .build()?;
        IndexBuilder::new(
            cluster.clone(),
            IndexSpec::local(names::LINEITEM_BY_SHIPDATE, names::LINEITEM, partitions),
            Arc::new(DelimitedInterpreter::pipe(
                cols::lineitem::SHIPDATE,
                FieldType::Date,
            )),
        )
        .with_partition_key(Arc::new(DelimitedInterpreter::pipe(
            cols::lineitem::ORDERKEY,
            FieldType::Int,
        )))
        .build()?;
    }
    if options.fk_indexes {
        IndexBuilder::new(
            cluster.clone(),
            IndexSpec::global(names::LINEITEM_BY_ORDERKEY, names::LINEITEM, partitions),
            Arc::new(DelimitedInterpreter::pipe(
                cols::lineitem::ORDERKEY,
                FieldType::Int,
            )),
        )
        .with_partition_key(Arc::new(DelimitedInterpreter::pipe(
            cols::lineitem::ORDERKEY,
            FieldType::Int,
        )))
        .build()?;
        IndexBuilder::new(
            cluster.clone(),
            IndexSpec::global(names::LINEITEM_BY_PARTKEY, names::LINEITEM, partitions),
            Arc::new(DelimitedInterpreter::pipe(
                cols::lineitem::PARTKEY,
                FieldType::Int,
            )),
        )
        .with_partition_key(Arc::new(DelimitedInterpreter::pipe(
            cols::lineitem::ORDERKEY,
            FieldType::Int,
        )))
        .build()?;
        IndexBuilder::new(
            cluster.clone(),
            IndexSpec::local(names::PART_BY_RETAILPRICE, names::PART, partitions),
            Arc::new(DelimitedInterpreter::pipe(
                cols::part::RETAILPRICE,
                FieldType::Float,
            )),
        )
        .build()?;
        IndexBuilder::new(
            cluster.clone(),
            IndexSpec::global(names::ORDERS_BY_CUSTKEY, names::ORDERS, partitions),
            Arc::new(DelimitedInterpreter::pipe(
                cols::orders::CUSTKEY,
                FieldType::Int,
            )),
        )
        .build()?;
    }

    Ok(LoadedTpch {
        generator,
        orders_rows: size.orders,
        lineitem_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded() -> (SimCluster, LoadedTpch) {
        let c = SimCluster::builder().nodes(4).build().unwrap();
        let loaded = load_tpch(&c, TpchGenerator::new(0.001, 42), &LoadOptions::default()).unwrap();
        (c, loaded)
    }

    #[test]
    fn all_tables_and_indexes_registered() {
        let (c, loaded) = loaded();
        for name in [
            names::REGION,
            names::NATION,
            names::SUPPLIER,
            names::CUSTOMER,
            names::PART,
            names::PARTSUPP,
            names::ORDERS,
            names::LINEITEM,
        ] {
            assert!(c.file(name).is_ok(), "missing file {name}");
        }
        for name in [
            names::ORDERS_BY_DATE,
            names::LINEITEM_BY_SHIPDATE,
            names::LINEITEM_BY_ORDERKEY,
            names::LINEITEM_BY_PARTKEY,
            names::PART_BY_RETAILPRICE,
            names::ORDERS_BY_CUSTKEY,
        ] {
            assert!(c.index(name).is_ok(), "missing index {name}");
        }
        assert_eq!(c.file(names::ORDERS).unwrap().len(), loaded.orders_rows);
        assert_eq!(c.file(names::LINEITEM).unwrap().len(), loaded.lineitem_rows);
        // ~4 lines per order.
        let ratio = loaded.lineitem_rows as f64 / loaded.orders_rows as f64;
        assert!((3.0..5.0).contains(&ratio), "lineitem/orders ratio {ratio}");
    }

    #[test]
    fn fk_index_resolves_to_correct_lineitems() {
        let (c, loaded) = loaded();
        let ix = c.index(names::LINEITEM_BY_ORDERKEY).unwrap();
        let expected = loaded.generator.order_with_lines(17).lines.len();
        let hits = ix.lookup(&Value::Int(17), 0).unwrap();
        assert_eq!(hits.len(), expected);
        for entry in hits {
            let e = rede_storage::IndexEntry::from_record(&entry).unwrap();
            let rec = c
                .resolve(
                    &rede_storage::Pointer::logical(names::LINEITEM, e.partition_key, e.key),
                    0,
                )
                .unwrap();
            assert_eq!(rec.field(cols::lineitem::ORDERKEY, '|').unwrap(), "17");
        }
    }

    #[test]
    fn orderdate_index_counts_match_scan() {
        let (c, _) = loaded();
        let lo = Value::Date(rede_common::Date::from_ymd(1993, 1, 1));
        let hi = Value::Date(rede_common::Date::from_ymd(1993, 12, 31));
        let ix = c.index(names::ORDERS_BY_DATE).unwrap();
        let via_index = ix.range(&lo, &hi, 0).unwrap().len();
        // Ground truth by scanning.
        let orders = c.file(names::ORDERS).unwrap();
        let mut via_scan = 0;
        for p in 0..orders.partitions() {
            orders
                .scan_partition(p, |_, r| {
                    let d = r.field(cols::orders::ORDERDATE, '|').unwrap();
                    if ("1993-01-01"..="1993-12-31").contains(&d) {
                        via_scan += 1;
                    }
                })
                .unwrap();
        }
        assert_eq!(via_index, via_scan);
        assert!(via_index > 50, "a year should be ~1/7 of 1500 orders");
    }

    #[test]
    fn partitions_default_to_cluster_nodes() {
        let (c, _) = loaded();
        assert_eq!(c.file(names::ORDERS).unwrap().partitions(), 4);
    }
}

"""A larger synthetic workload: an online bookstore catalogue.

Not from the paper — a realistic schema whose FD set exhibits *two*
anomalies at once, exercising both transformations and multi-step
normalization:

* ``publisher`` determines ``publisher_city`` (a university-style
  value dependency — *create element type*);
* all ``item`` children of one ``order`` share the order's
  ``currency`` (a DBLP-style relative dependency — *move attribute*).

The third value dependency, ``isbn -> format``, is *not* an anomaly:
``isbn`` is a key (``@isbn -> book`` is in Σ), so the FD follows
from the key and ``format`` is stored once per book.

The generator produces conforming documents of any size with the
dependencies satisfied, for integration tests and benchmarks.
"""

from __future__ import annotations

import random

from repro.spec import XMLSpec
from repro.xmltree.model import XMLTree

BOOKSTORE_DTD = """
<!ELEMENT store (book*, order*)>
<!ELEMENT book (blurb?)>
<!ATTLIST book
    isbn CDATA #REQUIRED
    format CDATA #REQUIRED
    publisher CDATA #REQUIRED
    publisher_city CDATA #REQUIRED>
<!ELEMENT blurb (#PCDATA)>
<!ELEMENT order (item+)>
<!ATTLIST order
    oid CDATA #REQUIRED>
<!ELEMENT item EMPTY>
<!ATTLIST item
    line CDATA #REQUIRED
    bisbn CDATA #REQUIRED
    currency CDATA #REQUIRED>
"""

BOOKSTORE_FDS = """
store.book.@isbn -> store.book
store.order.@oid -> store.order
{store.order, store.order.item.@line} -> store.order.item
store.book.@publisher -> store.book.@publisher_city
store.book.@isbn -> store.book.@format
store.order -> store.order.item.@currency
"""


def bookstore_spec() -> XMLSpec:
    """The two-anomaly bookstore specification."""
    return XMLSpec.parse(BOOKSTORE_DTD, BOOKSTORE_FDS)


def bookstore_document(books: int = 6, orders: int = 4,
                       items_per_order: int = 3, *,
                       publishers: int = 3,
                       seed: int = 0) -> XMLTree:
    """A conforming document satisfying every FD (deterministic)."""
    rng = random.Random(seed)
    cities = {f"pub{i}": f"city{i % max(1, publishers // 2)}"
              for i in range(publishers)}
    formats = {}
    tree = XMLTree()
    store = tree.add_node("store")
    for b in range(books):
        publisher = f"pub{rng.randrange(publishers)}"
        isbn = f"isbn{b}"
        formats[isbn] = rng.choice(["hardcover", "paperback", "epub"])
        book = tree.add_node("book", parent=store, attrs={
            "@isbn": isbn,
            "@format": formats[isbn],
            "@publisher": publisher,
            "@publisher_city": cities[publisher],
        })
        if rng.random() < 0.5:
            tree.add_node("blurb", parent=book,
                          text=f"About book {b}")
    for o in range(orders):
        order = tree.add_node("order", parent=store,
                              attrs={"@oid": f"o{o}"})
        currency = rng.choice(["EUR", "USD", "CAD"])
        for i in range(items_per_order):
            tree.add_node("item", parent=order, attrs={
                "@line": str(i),
                "@bisbn": f"isbn{rng.randrange(max(1, books))}",
                "@currency": currency,
            })
    return tree.freeze()
